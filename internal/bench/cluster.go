package bench

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vecstudy/internal/client"
	"vecstudy/internal/cluster"
	"vecstudy/internal/core"
	"vecstudy/internal/dataset"
	"vecstudy/internal/pg/db"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/server"
)

func init() {
	register(Experiment{
		ID:    "qps_cluster",
		Title: "Scatter-gather cluster QPS: sharded serving vs the single-node baseline",
		Paper: "beyond the paper: it scales PostgreSQL up (one box, many cores); specialized systems scale out by partition-parallel search, reproduced here as a shard router over the serving layer",
		Run:   runQPSCluster,
	})
}

// shardNode is one running shard backend and its database.
type shardNode struct {
	db  *db.DB
	srv *server.Server
}

func (n *shardNode) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
	n.db.Close()
}

// buildShardNode loads the slice of ds owned by shard (rows with
// id mod shards == shard, keeping global ids) into a fresh database,
// indexes it, and serves it. It is the disjoint-load path `datagen
// -shard i/N` feeds in a real deployment, performed in-process here.
func buildShardNode(ds *dataset.Dataset, shard, shards int, p core.Params, maxClients int) (*shardNode, error) {
	d, err := db.Open(db.Config{})
	if err != nil {
		return nil, err
	}
	schema := heap.Schema{Cols: []heap.Column{
		{Name: "id", Type: heap.Int4},
		{Name: "vec", Type: heap.Float4Array},
	}}
	tbl, err := d.CreateTable("t", schema)
	if err != nil {
		d.Close()
		return nil, err
	}
	n := 0
	row := make([]any, 2)
	for i := shard; i < ds.N(); i += shards {
		row[0], row[1] = int32(i), ds.Base.Row(i)
		if _, err := tbl.Insert(row); err != nil {
			d.Close()
			return nil, err
		}
		n++
	}
	clusters := p.C / shards
	if clusters < 4 {
		clusters = 4
	}
	opts := map[string]string{
		"clusters":     strconv.Itoa(clusters),
		"sample_ratio": strconv.FormatFloat(p.SR, 'g', -1, 64),
		"seed":         strconv.FormatInt(p.Seed, 10),
	}
	if _, err := d.CreateIndex("bench_idx", "t", "vec", "ivfflat", opts); err != nil {
		d.Close()
		return nil, err
	}
	srv := server.New(d, server.Config{
		MaxActive:    maxClients + 8,
		QueueDepth:   maxClients,
		QueryTimeout: time.Minute,
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		d.Close()
		return nil, err
	}
	return &shardNode{db: d, srv: srv}, nil
}

// runQPSCluster sweeps shard count x client count through real loopback
// shard servers fronted by the scatter-gather router, next to the
// single-node baseline (one shard behind the same serving path, no
// router), so the scale-out yield of partition-parallel search is
// read off directly: vs_single = cluster QPS over single-node QPS at
// the same client count, efficiency = vs_single / shards.
func runQPSCluster(cfg *Config) error {
	ds, err := cfg.Dataset(cfg.Datasets[0], 10)
	if err != nil {
		return err
	}
	p := core.Defaults(ds)
	p.K = 10

	perClient := cfg.Queries
	if perClient <= 0 {
		perClient = 100
	}
	clientCounts := append([]int(nil), cfg.Clients...)
	maxClients := 0
	for _, c := range clientCounts {
		if c > maxClients {
			maxClients = c
		}
	}

	sqls := make([]string, ds.NQ())
	for q := range sqls {
		sqls[q] = searchSQL(ds.Queries.Row(q), p.K)
	}

	cfg.printf("dataset=%s index=ivf_flat nprobe=%d k=%d queries_per_client=%d gomaxprocs=%d\n",
		ds.Name, p.NProbe, p.K, perClient, runtime.GOMAXPROCS(0))
	cfg.printf("shards  clients  qps       p50        p99        vs_single  efficiency\n")

	// Single-node baseline: one shard, no router — the same loader, pool
	// and index options every shard gets, so vs_single measures scale-out
	// and nothing else.
	single, err := buildShardNode(ds, 0, 1, p, maxClients)
	if err != nil {
		return err
	}
	baseline := make(map[int]core.ConcurrentResult, len(clientCounts))
	for _, clients := range clientCounts {
		r, err := runRemoteClients(single.srv.Addr().String(), clients, perClient, p.NProbe, sqls)
		if err != nil {
			single.stop()
			return err
		}
		baseline[clients] = r
		cfg.printf("%-7d %-8d %-9.1f %-10v %-10v %-10s %s\n",
			1, clients, r.QPS, r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond), "1.00x", "100%")
	}
	single.stop()

	for _, shards := range []int{2, 4} {
		nodes := make([]*shardNode, shards)
		m := &cluster.ShardMap{}
		for s := 0; s < shards; s++ {
			node, err := buildShardNode(ds, s, shards, p, maxClients)
			if err != nil {
				for _, n := range nodes {
					if n != nil {
						n.stop()
					}
				}
				return err
			}
			nodes[s] = node
			m.Shards = append(m.Shards, []string{node.srv.Addr().String()})
		}
		router := cluster.NewRouter(m, cluster.Config{PoolSize: maxClients + 4})
		front := server.NewWithBackend(router, server.Config{
			MaxActive:    maxClients + 8,
			QueueDepth:   maxClients,
			QueryTimeout: time.Minute,
		})
		if err := front.Start("127.0.0.1:0"); err != nil {
			router.Close()
			for _, n := range nodes {
				n.stop()
			}
			return err
		}

		var runErr error
		for _, clients := range clientCounts {
			r, err := runRemoteClients(front.Addr().String(), clients, perClient, p.NProbe, sqls)
			if err != nil {
				runErr = err
				break
			}
			base := baseline[clients]
			vs := 0.0
			if base.QPS > 0 {
				vs = r.QPS / base.QPS
			}
			cfg.printf("%-7d %-8d %-9.1f %-10v %-10v %-10s %s\n",
				shards, clients, r.QPS, r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
				fmt.Sprintf("%.2fx", vs), fmt.Sprintf("%.0f%%", 100*vs/float64(shards)))
		}

		st := router.Stats()
		cfg.printf("# router stats (shards=%d): queries=%d fanouts=%d retries=%d failovers=%d degraded=%d errors=%d\n",
			shards, st.Queries, st.Fanouts, st.Retries, st.Failovers, st.Degraded, st.Errors)

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		front.Shutdown(ctx)
		cancel()
		router.Close()
		for _, n := range nodes {
			n.stop()
		}
		if runErr != nil {
			return runErr
		}
	}
	cfg.printf("# vs_single = cluster QPS / single-node QPS at the same client count; efficiency = vs_single / shards.\n")
	cfg.printf("# Each shard holds N/shards rows (placement: id mod shards), so per-shard scans are smaller; the router\n")
	cfg.printf("# pays one extra hop plus a k-way merge. Scaling well below 100%% shows where fan-out overhead goes.\n")
	cfg.printf("# Every node, the shards=1 row included, is a served database (db.Open defaults, fresh sessions), not the engines line above.\n")
	return nil
}

// runRemoteClients opens one connection per client (each pinned to its
// own session, with the scan knob SET once up front) and drives the
// query mix through the serving layer.
func runRemoteClients(addr string, clients, perClient, nprobe int, sqls []string) (core.ConcurrentResult, error) {
	conns := make([]*client.Conn, clients)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range conns {
		c, err := client.Dial(addr)
		if err != nil {
			return core.ConcurrentResult{}, err
		}
		conns[i] = c
		if _, err := c.Execute(fmt.Sprintf("SET nprobe = %d", nprobe)); err != nil {
			return core.ConcurrentResult{}, err
		}
	}
	return core.RunConcurrent(clients, perClient, func(c, i int) error {
		res, err := conns[c].Execute(sqls[(c*perClient+i)%len(sqls)])
		if err != nil {
			return err
		}
		if len(res.Rows) == 0 {
			return fmt.Errorf("bench: remote query returned no rows")
		}
		return nil
	})
}

// searchSQL renders one top-k search as the SQL the serving layer
// parses, against the table buildShardNode loads ("t", column "vec").
func searchSQL(query []float32, k int) string {
	var b strings.Builder
	b.WriteString("SELECT id, distance FROM t ORDER BY vec <-> '{")
	for i, v := range query {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(float64(v), 'g', -1, 32))
	}
	b.WriteString("}' LIMIT ")
	b.WriteString(strconv.Itoa(k))
	return b.String()
}
