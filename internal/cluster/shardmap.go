// Package cluster composes N serving-layer instances (internal/server)
// into one logical vector database: a static shard map places rows,
// and a scatter-gather router fans kNN queries out to every shard over
// the existing wire protocol, merging per-shard top-k results into a
// global size-k answer with deterministic tie-breaking.
//
// The architecture is the partition-parallel search with replicated
// shards that specialized systems (Milvus-style) use: each shard holds
// a disjoint slice of the table (placement is by rowid modulo shard
// count) and is served by an ordered list of replicas. Reads go to one
// replica per shard with retry-once-on-next-replica failover; writes
// and DDL are broadcast to every replica of the owning shard(s).
// Rebalancing, distributed transactions, and dynamic membership are
// explicitly out of scope — the map is fixed at router start.
package cluster

import (
	"fmt"
	"strings"
)

// ShardMap is the static placement: Shards[i] is shard i's ordered
// replica address list (first = preferred).
type ShardMap struct {
	Shards [][]string
}

// ParseShardMap parses the `-shards` spec: shards separated by ';',
// replicas within a shard separated by ','. For example
//
//	"10.0.0.1:5462,10.0.0.2:5462;10.0.0.3:5462"
//
// is two shards, the first with two replicas.
func ParseShardMap(spec string) (*ShardMap, error) {
	m := &ShardMap{}
	for i, shard := range strings.Split(spec, ";") {
		var replicas []string
		for _, addr := range strings.Split(shard, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			replicas = append(replicas, addr)
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replica addresses in spec %q", i, spec)
		}
		m.Shards = append(m.Shards, replicas)
	}
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("cluster: empty shard spec")
	}
	return m, nil
}

// NumShards returns the shard count.
func (m *ShardMap) NumShards() int { return len(m.Shards) }

// NumReplicas returns the total replica count across shards.
func (m *ShardMap) NumReplicas() int {
	n := 0
	for _, s := range m.Shards {
		n += len(s)
	}
	return n
}

// ShardFor places a row: shard = rowid mod NumShards (non-negative).
// This is the same modulo split `datagen -shard i/N` emits and the
// disjoint-load helpers use, so a loader can populate shard i of N
// directly and the router will look for each row where the loader put
// it.
func (m *ShardMap) ShardFor(rowid int64) int {
	s := rowid % int64(len(m.Shards))
	if s < 0 {
		s += int64(len(m.Shards))
	}
	return int(s)
}

// String renders the map back in the `-shards` spec syntax.
func (m *ShardMap) String() string {
	shards := make([]string, len(m.Shards))
	for i, replicas := range m.Shards {
		shards[i] = strings.Join(replicas, ",")
	}
	return strings.Join(shards, ";")
}
