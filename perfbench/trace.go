package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"db2rdf"
	"db2rdf/internal/optimizer"
	"db2rdf/internal/rel"
	"db2rdf/internal/sparql"
	"db2rdf/internal/translator"
	"db2rdf/results"
)

// span is one call into a layer, recorded by the benchmark around that
// layer's exported entry point.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    int    `json:"req"`    // request id shared by a request's spans; 0 for set-up
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes,omitempty"` // heap bytes allocated during the span, where recorded
}

// tracer keeps spans in memory until the run ends. Spans may be begun
// from several goroutines (HTTP handler and clients).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	off   bool // record nothing: the untraced half of the overhead measurement
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when recording is off).
func (t *tracer) begin(layer string, req, parent int) int {
	if t == nil || t.off {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Layer: layer, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) setAlloc(id int, n uint64) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Alloc = n
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(layer string, req, parent int, fn func() error) error {
	id := t.begin(layer, req, parent)
	err := fn()
	t.end(id)
	return err
}

// layerStat is what the spans say about one layer.
type layerStat struct {
	count  int
	selfNs int64 // span time not covered by child spans
	alloc  uint64
}

// stats derives each layer's self time: a span's duration minus the
// part of its interval that its child spans cover.
func (t *tracer) stats() map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerStat{}
	for _, s := range t.spans {
		st := out[s.Layer]
		if st == nil {
			st = &layerStat{}
			out[s.Layer] = st
		}
		st.count++
		st.selfNs += s.End - s.Start - covered(s, children[s.ID])
		st.alloc += s.Alloc
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64 = 0, 0, -1
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// meanSelf is a layer's mean self time per span in the given unit.
func meanSelf(st map[string]*layerStat, layer string, unit time.Duration) float64 {
	s := st[layer]
	if s == nil || s.count == 0 {
		return 0
	}
	return float64(s.selfNs) / float64(s.count) / float64(unit)
}

// totalSelf is a layer's total self time in seconds.
func totalSelf(st map[string]*layerStat, layer string) float64 {
	if s := st[layer]; s != nil {
		return float64(s.selfNs) / 1e9
	}
	return 0
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var allocMetric = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocated reads the cumulative heap allocation without stopping
// the world (runtime.ReadMemStats would, on every executor call).
func heapAllocated() uint64 {
	metrics.Read(allocMetric)
	return allocMetric[0].Value.Uint64()
}

// pipelineOut is what the traced pipeline produced for one query.
type pipelineOut struct {
	res      *db2rdf.Results
	sqlBytes int
	json     int // encoded SPARQL JSON result bytes
}

// pipeline runs one query through the layers' exported entry points in
// the order the facade runs them — validate, parse, equality-filter
// unification, optimize, translate, SQL parse, execute, decode — and
// encodes the answer as SPARQL JSON, with a span around each call. It
// bypasses the plan cache, so every call is a compile. A query with a
// property-path closure needs the facade's closure materialisation,
// which has no exported entry point; it runs as one QueryContext span.
func (r *run) pipeline(ctx context.Context, s *db2rdf.Store, q string, req int) (pipelineOut, error) {
	t := r.tr
	var out pipelineOut
	root := t.begin("pipeline", req, 0)
	defer t.end(root)
	if err := t.do("server.validate", req, root, func() error { return db2rdf.ValidateQuery(q) }); err != nil {
		return out, err
	}
	var parsed *sparql.Query
	err := t.do("sparql.parse", req, root, func() error {
		var err error
		parsed, err = sparql.Parse(q)
		return err
	})
	if err != nil {
		return out, err
	}
	if len(parsed.Closures) > 0 {
		err := t.do("db2rdf.query", req, root, func() error {
			var err error
			out.res, err = s.QueryContext(ctx, q)
			return err
		})
		if err != nil {
			return out, err
		}
		return out, r.encode(&out, req, root)
	}
	t.do("sparql.rewrite", req, root, func() error { sparql.UnifyEqualityFilters(parsed); return nil })
	inner := s.Internal()
	snap := inner.Snapshot()
	var exec *optimizer.ExecNode
	err = t.do("optimizer.optimize", req, root, func() error {
		var err error
		exec, _, err = optimizer.Optimize(parsed, inner.StatsView())
		return err
	})
	if err != nil {
		return out, err
	}
	var tr *translator.Result
	err = t.do("translator.translate", req, root, func() error {
		backend := translator.NewDB2RDF(snap)
		planner := translator.NewPlanner(backend)
		planner.SetMerging(true)
		var err error
		tr, err = translator.Translate(parsed, planner.BuildPlan(exec), backend)
		return err
	})
	if err != nil {
		return out, err
	}
	out.sqlBytes = len(tr.SQL)
	res := &db2rdf.Results{IsAsk: tr.Ask}
	out.res = res
	if tr.SQL == "" {
		// No triple pattern: ASK {} is true, SELECT {} the unit solution.
		if tr.Ask {
			res.Ask = true
		} else {
			res.Vars = parsed.ProjectedVars()
			res.Rows = [][]db2rdf.Binding{make([]db2rdf.Binding, len(res.Vars))}
		}
		return out, r.encode(&out, req, root)
	}
	var rq *rel.Query
	err = t.do("rel.sqlparse", req, root, func() error {
		var err error
		rq, err = rel.ParseQuery(tr.SQL)
		return err
	})
	if err != nil {
		return out, err
	}
	var rs *rel.ResultSet
	id := t.begin("rel.exec", req, root)
	var a0 uint64
	if id != 0 {
		a0 = heapAllocated()
	}
	rs, err = snap.DB().ExecContext(ctx, rq, rel.Limits{})
	if id != 0 {
		t.setAlloc(id, heapAllocated()-a0)
	}
	t.end(id)
	if err != nil {
		return out, err
	}
	if tr.Ask {
		res.Ask = len(rs.Rows) > 0
		return out, r.encode(&out, req, root)
	}
	keep := len(tr.Columns) - tr.Hidden
	res.Vars = tr.Columns[:keep]
	err = t.do("dict.decode", req, root, func() error {
		for _, row := range rs.Rows {
			decoded := make([]db2rdf.Binding, keep)
			for i := 0; i < keep; i++ {
				if row[i].IsNull() {
					continue
				}
				term, err := inner.Dict.Decode(row[i].I)
				if err != nil {
					return fmt.Errorf("decoding result id %d: %w", row[i].I, err)
				}
				decoded[i] = db2rdf.Binding{Bound: true, Term: term}
			}
			res.Rows = append(res.Rows, decoded)
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	return out, r.encode(&out, req, root)
}

func (r *run) encode(out *pipelineOut, req, parent int) error {
	var buf bytes.Buffer
	err := r.tr.do("results.encode", req, parent, func() error { return results.WriteJSON(&buf, out.res) })
	out.json = buf.Len()
	return err
}

// tracedUpdate applies one INSERT DATA / DELETE DATA request through
// the layers the facade's UpdateContext calls — validate, parse, apply
// under the store write lock, publish — with a span around each.
func (r *run) tracedUpdate(s *db2rdf.Store, u string, req int) (ins, del int, err error) {
	t := r.tr
	root := t.begin("update", req, 0)
	defer t.end(root)
	if err := t.do("server.validate", req, root, func() error { return db2rdf.ValidateUpdate(u) }); err != nil {
		return 0, 0, err
	}
	var parsed *sparql.Update
	err = t.do("sparql.parse", req, root, func() error {
		var err error
		parsed, err = sparql.ParseUpdate(u)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	inner := s.Internal()
	inner.Lock()
	defer inner.Unlock()
	err = t.do("store.apply", req, root, func() error {
		for _, op := range parsed.Ops {
			for _, tp := range op.Data {
				switch op.Kind {
				case sparql.OpInsertData:
					fresh, err := inner.InsertLocked(tp)
					if fresh {
						ins++
					}
					if err != nil {
						return err
					}
				case sparql.OpDeleteData:
					removed, err := inner.DeleteLocked(tp)
					if removed {
						del++
					}
					if err != nil {
						return err
					}
				default:
					return fmt.Errorf("traced update: unsupported operation %v", op.Kind)
				}
			}
		}
		return nil
	})
	if ins+del > 0 {
		if perr := t.do("store.publish", req, root, inner.PublishLocked); perr != nil && err == nil {
			err = perr
		}
	}
	return ins, del, err
}

// layerMetrics turns the spans into the per-layer metrics both
// workloads report.
func (r *run) layerMetrics() {
	st := r.tr.stats()
	r.set("sparql.parse_us", meanSelf(st, "sparql.parse", time.Microsecond), "us")
	r.set("server.validate_us", meanSelf(st, "server.validate", time.Microsecond), "us")
	r.set("optimizer.optimize_us", meanSelf(st, "optimizer.optimize", time.Microsecond), "us")
	r.set("translator.translate_us", meanSelf(st, "translator.translate", time.Microsecond), "us")
	r.set("rel.sqlparse_us", meanSelf(st, "rel.sqlparse", time.Microsecond), "us")
	r.set("rel.exec_ms", meanSelf(st, "rel.exec", time.Millisecond), "ms")
	if e := st["rel.exec"]; e != nil && e.count > 0 {
		r.set("rel.exec_alloc_bytes", float64(e.alloc)/float64(e.count), "bytes")
	} else {
		r.set("rel.exec_alloc_bytes", 0, "bytes")
	}
	r.set("dict.decode_us", meanSelf(st, "dict.decode", time.Microsecond), "us")
	r.set("results.encode_us", meanSelf(st, "results.encode", time.Microsecond), "us")
	r.set("store.apply_us", meanSelf(st, "store.apply", time.Microsecond), "us")
	r.set("store.publish_ms", meanSelf(st, "store.publish", time.Millisecond), "ms")
	// Set-up ran setupReps times; these are per set-up.
	r.set("rdf.parse_s", totalSelf(st, "rdf.parse")/setupReps, "s")
	r.set("store.load_insert_s", totalSelf(st, "store.load_insert")/setupReps, "s")
	q := float64(max(r.queries, 1))
	r.set("translator.sql_bytes", float64(r.sqlBytes)/q, "bytes")
	r.set("results.bytes_per_query", float64(r.jsonBytes)/q, "bytes")
}

// analyzeMetrics runs EXPLAIN ANALYZE over the given reads and reports
// the optimizer's estimate-vs-actual q-errors and the operator rows the
// executor touched per result row. The analyzed answers are checked
// too.
func (r *run) analyzeMetrics(ctx context.Context, dbs []*db2rdf.Store, ins []*instance) {
	var qmax, logSum float64
	var qn int
	var touched, out int64
	for _, in := range ins {
		r.attempt()
		an, err := dbs[in.store].AnalyzeContext(ctx, in.text)
		if err != nil {
			r.opFailed("analyze "+in.name, err)
			continue
		}
		if err := in.check(an.Results); err != nil {
			r.wrong("analyze: %v", err)
		}
		for _, p := range an.Patterns {
			if p.Actual < 0 || p.QError <= 0 {
				continue
			}
			qmax = max(qmax, p.QError)
			logSum += math.Log(p.QError)
			qn++
		}
		if an.Stats != nil {
			for _, op := range an.Stats.Ops {
				touched += op.RowsIn + op.BuildRows
			}
			out += an.Stats.Rows
		}
	}
	r.set("optimizer.qerror_max", qmax, "ratio")
	if qn > 0 {
		r.set("optimizer.qerror_geomean", math.Exp(logSum/float64(qn)), "ratio")
	} else {
		r.set("optimizer.qerror_geomean", 1, "ratio")
	}
	r.set("rel.rows_touched_per_row_out", float64(touched)/float64(max(out, 1)), "ratio")
}

// storeCounters are the Metrics().Snapshot() fields the per-layer
// metrics take deltas of.
type storeCounters struct {
	hits, misses, stale, walAppends, snapshots uint64
	compactions, walBytes                      int64
	snapSeconds                                float64
}

func countersOf(s *db2rdf.Store) storeCounters {
	m := s.Metrics().Snapshot()
	return storeCounters{
		hits: m.PlanCacheHits, misses: m.PlanCacheMisses, stale: m.PlanCacheStaleEvictions,
		walAppends: m.WALAppends, snapshots: m.SnapshotWrites,
		compactions: m.CompactionsTotal, walBytes: m.WALBytes, snapSeconds: m.SnapshotWriteSeconds,
	}
}

// writeCounters reports the write-path deltas between two counter
// readings taken around a phase with the given number of updates.
func (r *run) writeCounters(a, b storeCounters, updates int) {
	u := float64(max(updates, 1))
	r.set("rel.compactions_per_update", float64(b.compactions-a.compactions)/u, "count")
	r.set("wal.bytes_per_update", float64(b.walBytes-a.walBytes)/u, "bytes")
	r.set("wal.appends", float64(b.walAppends-a.walAppends), "count")
	r.set("store.snapshot_writes", float64(b.snapshots-a.snapshots), "count")
	snapMs := 0.0
	if n := b.snapshots - a.snapshots; n > 0 {
		snapMs = (b.snapSeconds - a.snapSeconds) * 1000 / float64(n)
	}
	r.set("store.snapshot_write_ms", snapMs, "ms")
	r.set("db2rdf.plancache_stale_evictions_per_update", float64(b.stale-a.stale)/u, "count")
}

// hitRatio is the plan-cache hit share between two readings.
func hitRatio(a, b storeCounters) float64 {
	h, m := float64(b.hits-a.hits), float64(b.misses-a.misses)
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}
