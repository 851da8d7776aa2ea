package heap

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"vecstudy/internal/pg/buffer"
	"vecstudy/internal/pg/storage"
)

var testSchema = Schema{Cols: []Column{
	{Name: "id", Type: Int4},
	{Name: "big", Type: Int8},
	{Name: "score", Type: Float4},
	{Name: "name", Type: Text},
	{Name: "vec", Type: Float4Array},
}}

func newTable(t *testing.T) *Table {
	t.Helper()
	pool, err := buffer.NewPool(4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Register(1, storage.NewMemStore(4096)); err != nil {
		t.Fatal(err)
	}
	tbl, err := New(pool, 1, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func sampleRow(i int) []any {
	return []any{int32(i), int64(i) << 32, float32(i) / 2, fmt.Sprintf("row-%d", i), []float32{float32(i), -float32(i)}}
}

func TestTIDPackUnpack(t *testing.T) {
	f := func(blk uint32, off uint16) bool {
		var b [PackedTIDSize]byte
		tid := TID{Blk: blk, Off: off}
		tid.Pack(b[:])
		return UnpackTID(b[:]) == tid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	row := sampleRow(7)
	enc, err := testSchema.Encode(row)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := testSchema.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec[0].(int32) != 7 || dec[1].(int64) != 7<<32 || dec[2].(float32) != 3.5 || dec[3].(string) != "row-7" {
		t.Errorf("decoded %v", dec)
	}
	v := dec[4].([]float32)
	if v[0] != 7 || v[1] != -7 {
		t.Errorf("vector %v", v)
	}
}

func TestEncodeTypeErrors(t *testing.T) {
	bad := [][]any{
		{int64(1), int64(1), float32(1), "x", []float32{1}}, // int64 for Int4
		{int32(1), "no", float32(1), "x", []float32{1}},     // string for Int8
		{int32(1), int64(1), float64(1), "x", []float32{1}}, // float64 for Float4
		{int32(1), int64(1), float32(1), 5, []float32{1}},   // int for Text
		{int32(1), int64(1), float32(1), "x", []float64{1}}, // wrong array type
		{int32(1), int64(1), float32(1), "x"},               // arity
	}
	for i, row := range bad {
		if _, err := testSchema.Encode(row); err == nil {
			t.Errorf("case %d: bad row encoded", i)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	enc, _ := testSchema.Encode(sampleRow(1))
	for _, cut := range []int{0, 3, 11, len(enc) - 1} {
		if _, err := testSchema.Decode(enc[:cut]); err == nil {
			t.Errorf("decoded truncated tuple of %d bytes", cut)
		}
	}
}

func TestVectorAtSkipsColumns(t *testing.T) {
	enc, _ := testSchema.Encode(sampleRow(9))
	v, err := testSchema.VectorAt(enc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 9 || v[1] != -9 {
		t.Errorf("VectorAt = %v", v)
	}
	if _, err := testSchema.VectorAt(enc, 0); err == nil {
		t.Error("VectorAt on a non-vector column succeeded")
	}
}

func TestInsertGetScan(t *testing.T) {
	tbl := newTable(t)
	const n = 500 // spans multiple pages
	tids := make([]TID, n)
	for i := 0; i < n; i++ {
		tid, err := tbl.Insert(sampleRow(i))
		if err != nil {
			t.Fatal(err)
		}
		tids[i] = tid
	}
	if tbl.NTuples() != n {
		t.Fatalf("NTuples = %d", tbl.NTuples())
	}
	// Random access by TID.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		i := rng.Intn(n)
		var id int32
		err := tbl.Get(tids[i], func(tup []byte) error {
			vals, err := testSchema.Decode(tup)
			if err != nil {
				return err
			}
			id = vals[0].(int32)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if id != int32(i) {
			t.Fatalf("tid %v returned id %d, want %d", tids[i], id, i)
		}
	}
	// Full scan covers everything in insertion order.
	next := 0
	err := tbl.Scan(func(tid TID, tup []byte) (bool, error) {
		vals, err := testSchema.Decode(tup)
		if err != nil {
			return false, err
		}
		if vals[0].(int32) != int32(next) {
			return false, fmt.Errorf("scan out of order at %d", next)
		}
		next++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("scan visited %d tuples", next)
	}
}

func TestGetVector(t *testing.T) {
	tbl := newTable(t)
	tid, err := tbl.Insert(sampleRow(3))
	if err != nil {
		t.Fatal(err)
	}
	v, err := tbl.GetVector(tid, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 3 || v[1] != -3 {
		t.Errorf("GetVector = %v", v)
	}
}

func TestDeleteHidesTuple(t *testing.T) {
	tbl := newTable(t)
	tidA, _ := tbl.Insert(sampleRow(1))
	tbl.Insert(sampleRow(2))
	if ok, err := tbl.Delete(tidA); err != nil || !ok {
		t.Fatalf("Delete = (%v, %v)", ok, err)
	}
	if tbl.NTuples() != 1 {
		t.Errorf("NTuples after delete = %d", tbl.NTuples())
	}
	count := 0
	tbl.Scan(func(TID, []byte) (bool, error) { count++; return true, nil })
	if count != 1 {
		t.Errorf("scan saw %d tuples after delete", count)
	}
	if err := tbl.Get(tidA, func([]byte) error { return nil }); err == nil {
		t.Error("Get of deleted tuple succeeded")
	}
}

func TestScanEarlyStop(t *testing.T) {
	tbl := newTable(t)
	for i := 0; i < 10; i++ {
		tbl.Insert(sampleRow(i))
	}
	count := 0
	tbl.Scan(func(TID, []byte) (bool, error) {
		count++
		return count < 3, nil
	})
	if count != 3 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestReopenRestoresCount(t *testing.T) {
	pool, _ := buffer.NewPool(4096, 64)
	store := storage.NewMemStore(4096)
	pool.Register(1, store)
	tbl, _ := New(pool, 1, testSchema)
	for i := 0; i < 20; i++ {
		tbl.Insert(sampleRow(i))
	}
	pool.FlushAll()
	// A second Table over the same relation must see the tuples.
	tbl2, err := New(pool, 1, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.NTuples() != 20 {
		t.Errorf("reopened NTuples = %d", tbl2.NTuples())
	}
}

func TestVacuumReclaimsDeadTuples(t *testing.T) {
	tbl := newTable(t)
	var tids []TID
	for i := 0; i < 50; i++ {
		tid, err := tbl.Insert(sampleRow(i))
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	for i := 0; i < 50; i += 2 {
		if ok, err := tbl.Delete(tids[i]); err != nil || !ok {
			t.Fatalf("Delete(%d) = (%v, %v)", i, ok, err)
		}
	}
	if got := tbl.NDead(); got != 25 {
		t.Fatalf("NDead = %d, want 25", got)
	}
	if f := tbl.DeadFraction(); f < 0.49 || f > 0.51 {
		t.Fatalf("DeadFraction = %g, want 0.5", f)
	}

	stats, err := tbl.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeadReclaimed != 25 {
		t.Errorf("DeadReclaimed = %d, want 25", stats.DeadReclaimed)
	}
	if stats.BytesFreed <= 0 || stats.PagesCompacted <= 0 {
		t.Errorf("vacuum freed %d bytes over %d pages, want > 0", stats.BytesFreed, stats.PagesCompacted)
	}
	if got := tbl.NDead(); got != 0 {
		t.Errorf("NDead after vacuum = %d", got)
	}
	// Survivors stay readable at their original TIDs, victims stay gone.
	for i, tid := range tids {
		ok, err := visible(tbl, tid)
		if err != nil {
			t.Fatal(err)
		}
		if want := i%2 == 1; ok != want {
			t.Errorf("Visible(%d) = %v after vacuum, want %v", i, ok, want)
		}
	}
	// A second vacuum is a no-op.
	stats, err = tbl.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeadReclaimed != 0 {
		t.Errorf("second vacuum reclaimed %d", stats.DeadReclaimed)
	}
}

// visible reports whether the tuple at tid is live, through the
// visibility-checked read.
func visible(tbl *Table, tid TID) (bool, error) {
	return tbl.GetVisible(tid, func([]byte) error { return nil })
}

func TestVacuumThenInsertReusesTable(t *testing.T) {
	tbl := newTable(t)
	var tids []TID
	for i := 0; i < 20; i++ {
		tid, _ := tbl.Insert(sampleRow(i))
		tids = append(tids, tid)
	}
	for _, tid := range tids {
		tbl.Delete(tid)
	}
	if _, err := tbl.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if tbl.NTuples() != 0 {
		t.Fatalf("NTuples = %d after delete-all vacuum", tbl.NTuples())
	}
	tid, err := tbl.Insert(sampleRow(99))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := visible(tbl, tid); err != nil || !ok {
		t.Fatalf("fresh insert not visible: (%v, %v)", ok, err)
	}
}

func TestReopenRestoresDeadCount(t *testing.T) {
	pool, _ := buffer.NewPool(4096, 64)
	store := storage.NewMemStore(4096)
	pool.Register(1, store)
	tbl, _ := New(pool, 1, testSchema)
	var tids []TID
	for i := 0; i < 12; i++ {
		tid, _ := tbl.Insert(sampleRow(i))
		tids = append(tids, tid)
	}
	for i := 0; i < 4; i++ {
		tbl.Delete(tids[i])
	}
	pool.FlushAll()
	tbl2, err := New(pool, 1, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.NTuples() != 8 {
		t.Errorf("reopened NTuples = %d, want 8", tbl2.NTuples())
	}
	if tbl2.NDead() != 4 {
		t.Errorf("reopened NDead = %d, want 4", tbl2.NDead())
	}
}

// TestSampleTracksDeletes is the planner-statistics regression test:
// deletes down-weight the reservoir immediately, and vacuum rebuilds it
// from the surviving tuples, so selectivity estimates follow the live
// distribution instead of the historical one.
func TestSampleTracksDeletes(t *testing.T) {
	tbl := newTable(t)
	var tids []TID
	for i := 0; i < 200; i++ {
		tid, err := tbl.Insert(sampleRow(i))
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	lowFrac := func() float64 {
		rows, err := tbl.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			return 0
		}
		low := 0
		for _, r := range rows {
			if r[0].(int32) < 100 {
				low++
			}
		}
		return float64(low) / float64(len(rows))
	}
	if f := lowFrac(); f < 0.3 || f > 0.7 {
		t.Fatalf("pre-delete sample fraction id<100 = %g, want ~0.5", f)
	}
	// Skewed churn: delete every id < 100.
	for i := 0; i < 100; i++ {
		if ok, err := tbl.Delete(tids[i]); err != nil || !ok {
			t.Fatalf("Delete(%d) = (%v, %v)", i, ok, err)
		}
	}
	// The drop-on-delete path already purges them from the reservoir.
	if f := lowFrac(); f != 0 {
		t.Errorf("post-delete sample fraction id<100 = %g, want 0", f)
	}
	// And vacuum's full rebuild keeps it that way with restored uniformity.
	if _, err := tbl.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if f := lowFrac(); f != 0 {
		t.Errorf("post-vacuum sample fraction id<100 = %g, want 0", f)
	}
	rows, err := tbl.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("post-vacuum sample is empty with 100 live tuples")
	}
}
