package rel

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Tests for the columnar layout (column.go, vecscan.go): round-trip
// equivalence against a row model across randomized mutation
// sequences, packed insert/delete transitions, exception values,
// zone-map pruning correctness, the cached column-name lookup, the
// float-index regression, and governance semantics of the vectorized
// scan.

// rowModel is the reference a columnar table is checked against: a
// plain slice of rows that the test mutates alongside the table.
type rowModel []Row

func (m *rowModel) appendRows(rs ...Row) {
	for _, r := range rs {
		*m = append(*m, append(Row(nil), r...))
	}
}

// tableRows materializes every live row of tbl in table order, chunk by
// chunk through the same gather the dense scan uses.
func tableRows(tbl *Table) []Row {
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	var out []Row
	for lo := 0; lo < tbl.nrows; lo += chunkRows {
		seg := make([]Row, min(chunkRows, tbl.nrows-lo))
		for i := range seg {
			seg[i] = make(Row, len(tbl.cols))
		}
		for j, col := range tbl.cols {
			col.gatherChunk(lo>>chunkShift, seg, j)
		}
		for i, r := range seg {
			if !tbl.deadLocked(lo + i) {
				out = append(out, r)
			}
		}
	}
	return out
}

// estimate is the EstimateBytes formula computed row by row.
func (m rowModel) estimate() int64 {
	var total, nulls int64
	for _, r := range m {
		total += 8 // row header
		for _, v := range r {
			switch v.K {
			case KindNull:
				nulls++
			case KindInt, KindFloat:
				total += 8
			case KindString:
				total += int64(len(v.S)) + 4
			default:
				total++
			}
		}
	}
	return total + (nulls+7)/8
}

// randValue draws a value for a column of type typ; about a third are
// NULL and a few are kind-mismatched (exception-path) values.
func randValue(r *rand.Rand, typ ColumnType) Value {
	switch n := r.Intn(10); {
	case n < 3:
		return Null
	case n == 9: // kind mismatch
		switch typ {
		case TInt:
			return Bool(r.Intn(2) == 0)
		case TFloat:
			return Int(int64(r.Intn(100)))
		default:
			return Float(r.Float64())
		}
	default:
		switch typ {
		case TInt:
			return Int(int64(r.Intn(2000) - 1000))
		case TFloat:
			return Float(r.NormFloat64())
		default:
			return Str(fmt.Sprintf("s%d", r.Intn(500)))
		}
	}
}

func sameTable(t *testing.T, col *Table, model rowModel, what string) {
	t.Helper()
	if col.Len() != len(model) {
		t.Fatalf("%s: Len %d vs %d", what, col.Len(), len(model))
	}
	for i, want := range model {
		if got := col.RowAt(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: RowAt(%d): %v vs %v", what, i, got, want)
		}
		for j := range want {
			if got := col.CellAt(i, j); !reflect.DeepEqual(got, want[j]) {
				t.Fatalf("%s: CellAt(%d,%d): %v vs %v", what, i, j, got, want[j])
			}
		}
	}
	if !reflect.DeepEqual(tableRows(col), []Row(model)) && col.Len() > 0 {
		t.Fatalf("%s: gathered rows diverge", what)
	}
	if got, want := col.EstimateBytes(), model.estimate(); got != want {
		t.Fatalf("%s: EstimateBytes %d vs %d (must count logical values)", what, got, want)
	}
}

// TestColumnarRoundTrip drives randomized appends, batch appends,
// cell updates and row updates through a table and a row model and
// requires identical logical content after every phase — including
// NULL↔value transitions that shift the packed vectors, and exception
// values.
func TestColumnarRoundTrip(t *testing.T) {
	schema := Schema{
		{Name: "i", Type: TInt},
		{Name: "s", Type: TString},
		{Name: "f", Type: TFloat},
	}
	col := NewTable("c", schema)
	var row rowModel
	r := rand.New(rand.NewSource(42))
	mkRow := func() Row {
		out := make(Row, len(schema))
		for j, c := range schema {
			out[j] = randValue(r, c.Type)
		}
		return out
	}
	// Appends crossing several chunk boundaries.
	for i := 0; i < 2600; i++ {
		rw := mkRow()
		if err := col.Insert(rw); err != nil {
			t.Fatal(err)
		}
		row.appendRows(rw)
	}
	sameTable(t, col, row, "after appends")

	batch := make([]Row, 1500)
	for i := range batch {
		batch[i] = mkRow()
	}
	cb, err := col.AppendRows(batch)
	if err != nil {
		t.Fatal(err)
	}
	if cb != len(row) {
		t.Fatalf("AppendRows base %d vs %d", cb, len(row))
	}
	row.appendRows(batch...)
	sameTable(t, col, row, "after batch")

	for n := 0; n < 3000; n++ {
		i, j := r.Intn(col.Len()), r.Intn(len(schema))
		v := randValue(r, schema[j].Type)
		if err := col.SetCell(i, j, v); err != nil {
			t.Fatal(err)
		}
		row[i][j] = v
	}
	sameTable(t, col, row, "after SetCell churn")

	for n := 0; n < 200; n++ {
		i := r.Intn(col.Len())
		rw := mkRow()
		for j, v := range rw {
			if err := col.SetCell(i, j, v); err != nil {
				t.Fatal(err)
			}
		}
		row[i] = append(Row(nil), rw...)
	}
	sameTable(t, col, row, "after whole-row overwrites")
}

// TestSetCellOutOfRange pins the error contract.
func TestSetCellOutOfRange(t *testing.T) {
	tbl := NewTable("t", Schema{{Name: "a", Type: TInt}})
	if err := tbl.Insert(Row{Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetCell(1, 0, Int(2)); err == nil {
		t.Fatal("row out of range must error")
	}
	if err := tbl.SetCell(0, 1, Int(2)); err == nil {
		t.Fatal("column out of range must error")
	}
}

// TestTableColumnIndexCached: the per-table name cache must agree with
// the linear Schema scan, case-insensitively.
func TestTableColumnIndexCached(t *testing.T) {
	schema := Schema{{Name: "Entry", Type: TInt}, {Name: "spill", Type: TInt}, {Name: "Pred0", Type: TInt}}
	tbl := NewTable("t", schema)
	for _, name := range []string{"entry", "ENTRY", "Entry", "spill", "pred0", "PRED0", "nosuch"} {
		if got, want := tbl.ColumnIndex(name), schema.ColumnIndex(name); got != want {
			t.Fatalf("ColumnIndex(%q) = %d, Schema gives %d", name, got, want)
		}
	}
}

// TestFloatIndexRegression: hashIndex used to silently skip TFloat
// columns (CreateIndex refused them) and float values stored in
// indexed TInt columns were never indexed, so an index scan missed
// rows a full scan would find. Floats now index by class: integral
// floats in the int map (1 finds 1.0), others by bit pattern.
func TestFloatIndexRegression(t *testing.T) {
	db := NewDB()
	tbl := mustTable(t, db, "m", Schema{{Name: "id", Type: TInt}, {Name: "v", Type: TFloat}}, []Row{
		{Int(0), Float(1.5)},
		{Int(1), Float(2.0)},
		{Int(2), Null},
		{Int(3), Float(1.5)},
		{Int(4), Int(7)}, // int stored in the float column
	})
	if err := tbl.CreateIndex("v"); err != nil {
		t.Fatalf("TFloat index must be supported: %v", err)
	}
	lookup := func(v Value, want int) {
		t.Helper()
		ids, ok := tbl.lookup("v", v)
		if !ok {
			t.Fatal("index vanished")
		}
		if len(ids) != want {
			t.Fatalf("lookup(%v) = %v, want %d ids", v, ids, want)
		}
	}
	lookup(Float(1.5), 2)
	lookup(Float(2.0), 1)
	lookup(Int(2), 1)     // integral float found via int probe
	lookup(Float(7), 1)   // stored int found via integral-float probe
	lookup(Float(9.9), 0) // absent
	lookup(Null, 0)       // NULL never matches

	// End-to-end: the indexed scan path must agree with a full scan.
	rs, err := db.Query("SELECT m.id FROM m AS m WHERE m.v = 1.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("indexed float equality: want 2 rows, got %v", rs.Rows)
	}

	// Float values inside an indexed TInt column must be indexed too.
	ti := mustTable(t, db, "n", Schema{{Name: "k", Type: TInt}}, []Row{
		{Int(1)}, {Float(1)}, {Float(2.5)},
	})
	if err := ti.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	if ids, _ := ti.lookup("k", Int(1)); len(ids) != 2 {
		t.Fatalf("int probe must see the integral float: %v", ids)
	}
	if ids, _ := ti.lookup("k", Float(2.5)); len(ids) != 1 {
		t.Fatalf("non-integral float must be indexed by bit pattern: %v", ids)
	}
}

// zoneDB builds a DB holding an 8192-row table and returns the rows
// as the reference model: "v" is clustered (ascending, so zone maps
// prune aggressively), "u" is shuffled (no pruning), "s" is a string
// tag, "n" is NULL on odd rows.
func zoneDB(t *testing.T) (*DB, rowModel) {
	t.Helper()
	db := NewDB()
	tbl, err := db.CreateTable("z", Schema{
		{Name: "v", Type: TInt},
		{Name: "u", Type: TInt},
		{Name: "s", Type: TString},
		{Name: "n", Type: TInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	perm := r.Perm(8192)
	rows := make([]Row, 8192)
	for i := range rows {
		nv := Value(Int(int64(i)))
		if i%2 == 1 {
			nv = Null
		}
		rows[i] = Row{Int(int64(i)), Int(int64(perm[i])), Str(fmt.Sprintf("tag%d", i%7)), nv}
	}
	if _, err := tbl.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	return db, rows
}

// zoneModelDB is zoneDB without the model.
func zoneModelDB(t *testing.T) *DB {
	db, _ := zoneDB(t)
	return db
}

// selectModel evaluates a scan in Go: the rows of m that keep accepts,
// projected onto cols, in table order.
func selectModel(m rowModel, cols []int, keep func(Row) bool) []Row {
	var out []Row
	for _, r := range m {
		if keep(r) {
			p := make(Row, len(cols))
			for i, c := range cols {
				p[i] = r[c]
			}
			out = append(out, p)
		}
	}
	return out
}

// TestVectorizedScanEquivalence runs scan-shaped queries — equality,
// ranges, inequality, null tests, residual string predicates, and
// mixes — over raw and sealed chunks under sequential and parallel
// execution; results must match the row model filtered in Go, row for
// row.
func TestVectorizedScanEquivalence(t *testing.T) {
	defer SetParallelism(0, 0)
	rawDB, model := zoneDB(t)
	// Publishing seals the chunks (FoR bit-packing, shared dense
	// bitmaps), so the frozen DB exercises the packed scan fast paths
	// against the same queries.
	sealDB := rawDB.Publish()
	const v, u, s, n = 0, 1, 2, 3
	queries := []struct {
		sql  string
		cols []int
		keep func(Row) bool
	}{
		{"SELECT z.v FROM z AS z WHERE z.v = 5000", []int{v}, func(r Row) bool { return r[v].I == 5000 }},
		{"SELECT z.v FROM z AS z WHERE z.v = 100000", []int{v}, func(r Row) bool { return false }},                                           // zone-skips every chunk
		{"SELECT z.v FROM z AS z WHERE z.v < 100", []int{v}, func(r Row) bool { return r[v].I < 100 }},                                       // prunes all but chunk 0
		{"SELECT z.v FROM z AS z WHERE z.v >= 8100", []int{v}, func(r Row) bool { return r[v].I >= 8100 }},                                   // prunes all but the tail
		{"SELECT z.v FROM z AS z WHERE z.v != 0", []int{v}, func(r Row) bool { return r[v].I != 0 }},                                         // no pruning possible
		{"SELECT z.v FROM z AS z WHERE 2048 <= z.v AND z.v <= 2050", []int{v}, func(r Row) bool { return r[v].I >= 2048 && r[v].I <= 2050 }}, // literal on the left
		{"SELECT z.u FROM z AS z WHERE z.u = 5000", []int{u}, func(r Row) bool { return r[u].I == 5000 }},                                    // shuffled: no chunk pruned
		{"SELECT z.v FROM z AS z WHERE z.n IS NULL AND z.v < 64", []int{v}, func(r Row) bool { return r[n].IsNull() && r[v].I < 64 }},
		{"SELECT z.v FROM z AS z WHERE z.n IS NOT NULL AND z.v > 8000", []int{v}, func(r Row) bool { return !r[n].IsNull() && r[v].I > 8000 }},
		{"SELECT z.v FROM z AS z WHERE z.v < 300 AND z.s = 'tag3'", []int{v}, func(r Row) bool { return r[v].I < 300 && r[s].S == "tag3" }}, // residual predicate
		{"SELECT z.s FROM z AS z WHERE z.s = 'tag5' AND z.u < 40", []int{s}, func(r Row) bool { return r[s].S == "tag5" && r[u].I < 40 }},
		{"SELECT z.v, z.u FROM z AS z", []int{v, u}, func(r Row) bool { return true }},                    // unfiltered dense gather
		{"SELECT z.v FROM z AS z WHERE z.v + 0 = 77", []int{v}, func(r Row) bool { return r[v].I == 77 }}, // non-vectorizable arithmetic
	}
	for _, q := range queries {
		want := selectModel(model, q.cols, q.keep)
		for _, workers := range []int{1, 4} {
			SetParallelism(workers, 1)
			for _, db := range []struct {
				name string
				db   *DB
			}{{"raw", rawDB}, {"sealed", sealDB}} {
				got, err := db.db.Query(q.sql)
				if err != nil {
					t.Fatalf("%s %q: %v", db.name, q.sql, err)
				}
				if !reflect.DeepEqual(got.Rows, want) {
					t.Fatalf("workers=%d %q: %s chunks give %d rows, the model %d", workers, q.sql, db.name, len(got.Rows), len(want))
				}
			}
			SetParallelism(0, 0)
		}
	}
}

// TestVecScanBudgetChargesSelectedRows: a highly selective scan over a
// mostly-pruned table must charge only the selected rows against the
// row budget — never the rows of skipped chunks — while a scan that
// actually produces many rows must still trip.
func TestVecScanBudgetChargesSelectedRows(t *testing.T) {
	db := zoneModelDB(t)
	q, err := ParseQuery("SELECT z.v FROM z AS z WHERE z.v < 10")
	if err != nil {
		t.Fatal(err)
	}
	// 10 selected rows scan + 10 projected ≤ 50, even though the table
	// holds 8192 rows across 8 chunks (7 of them zone-skipped).
	if _, err := db.ExecContext(context.Background(), q, Limits{MaxRows: 50}); err != nil {
		t.Fatalf("budget must ignore pruned chunks: %v", err)
	}
	wide, err := ParseQuery("SELECT z.v FROM z AS z WHERE z.v >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(context.Background(), wide, Limits{MaxRows: 50}); err == nil {
		t.Fatal("a scan emitting 8192 rows must trip a 50-row budget")
	}
}

// TestVecScanFaultInjection: the vectorized scan must keep honoring
// CkFilter checkpoints (cancellation inside the chunk loop).
func TestVecScanFaultInjection(t *testing.T) {
	db := zoneModelDB(t)
	q, err := ParseQuery("SELECT z.v FROM z AS z WHERE z.v != -1")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		SetParallelism(workers, 1)
		InjectFault(CkFilter, FaultCancel, 1)
		_, execErr := db.ExecContext(context.Background(), q, Limits{})
		fired := FaultFired()
		ClearFault()
		SetParallelism(0, 0)
		if execErr == nil || !fired {
			t.Fatalf("workers=%d: vectorized scan skipped the CkFilter checkpoint (err=%v fired=%v)", workers, execErr, fired)
		}
	}
}
