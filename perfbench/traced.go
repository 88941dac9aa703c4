package main

import (
	"context"
	"math/rand"
	"time"

	"db2rdf"
)

// The traced run drives the same workload through each layer's
// exported entry points with spans around every call (trace.go) and
// prints the per-layer metrics in place of the end-to-end ones.

const (
	tracedCorpusPasses = 2    // traced pipeline passes over the 90 instances
	serveReplayReads   = 1500 // reads of the HTTP phase replayed through the pipeline
	analyzedReads      = 100  // distinct serve-mixed reads run under EXPLAIN ANALYZE
)

// corpusTraced is corpus-analytic's traced run: the reads through the
// pipeline, each compared with QueryContext's answer; one pass over
// HTTP for the handler and transport split; EXPLAIN ANALYZE over every
// instance; the write batch through the traced update path; recovery.
func (r *run) corpusTraced(ctx context.Context, st *stores, ins []*instance, rng *rand.Rand) error {
	var reads []*instance
	for p := 0; p < tracedCorpusPasses; p++ {
		for _, i := range rng.Perm(len(ins)) {
			reads = append(reads, ins[i])
		}
	}
	c0 := sumCounters(st.db)
	if err := r.replay(ctx, st.db, reads, 1); err != nil {
		return err
	}
	r.set("db2rdf.plancache_hit_ratio", hitRatio(c0, sumCounters(st.db)), "ratio")

	req := len(reads) + 1
	for i, s := range st.db {
		ep, err := r.serve(s)
		if err != nil {
			return err
		}
		cl := r.newClient(ep)
		for _, in := range ins {
			if in.store == i {
				r.checkedHTTPRead(cl, in, req)
				req++
			}
		}
		cl.close()
		if err := ep.stop(); err != nil {
			return err
		}
	}
	r.httpLayers()
	r.analyzeMetrics(ctx, st.db, ins)

	ws := newWriteStream(r.seed, "batch", batchPerEntity, batchInsertEnts, batchDeleteEnts, batchDeleteEvery)
	w0 := countersOf(st.db[0])
	for u := 0; u < batchUpdates; u++ {
		op := ws.next()
		if _, u, ok := r.sendUpdate(nil, st.db[0], &op, req); ok {
			r.checkCounts(u)
			r.probe(ctx, st.db[0], op)
		}
		req++
	}
	r.writeCounters(w0, countersOf(st.db[0]), batchUpdates)
	written := make([][]string, len(st.dss))
	written[0] = ws.liveLines()
	if err := r.closeAndRecover(st, written, st.triples()+len(written[0])); err != nil {
		return err
	}
	r.layerMetrics()
	return nil
}

// serveReplay is serve-mixed's traced epilogue: the HTTP phase has run
// with handler and round-trip spans; its first reads are now replayed
// through the pipeline, and a sample of distinct reads analyzed.
func (r *run) serveReplay(ctx context.Context, s *db2rdf.Store, plans [][]plannedRead, ins map[string]*instance) error {
	var reads []*instance
	for k := 0; len(reads) < serveReplayReads; k++ {
		more := false
		for _, p := range plans {
			if k < len(p) {
				reads = append(reads, ins[p[k].text])
				more = true
			}
		}
		if !more {
			break
		}
	}
	if err := r.replay(ctx, []*db2rdf.Store{s}, reads, 20_000_000); err != nil {
		return err
	}
	r.httpLayers()
	seen := map[string]bool{}
	var distinct []*instance
	for _, in := range reads {
		if !seen[in.text] && len(distinct) < analyzedReads {
			seen[in.text] = true
			distinct = append(distinct, in)
		}
	}
	r.analyzeMetrics(ctx, []*db2rdf.Store{s}, distinct)
	return nil
}

// replay runs each read through QueryContext (the reference answer,
// checked against the baseline) and through the pipeline twice, once
// traced and once with span recording off, alternating which goes
// first. The pipeline's answer must equal QueryContext's; the two
// pipeline timings give the tracing overhead.
func (r *run) replay(ctx context.Context, dbs []*db2rdf.Store, reads []*instance, firstReq int) error {
	var traced, plain []float64
	var sqlBytes, jsonBytes int64
	for i, in := range reads {
		s := dbs[in.store]
		r.attempt()
		ref, err := s.QueryContext(ctx, in.text)
		if err != nil {
			r.opFailed("query "+in.name, err)
			continue
		}
		r.checkRead(in, ref)
		for k := 0; k < 2; k++ {
			on := (i+k)%2 == 0
			r.tr.off = !on
			r.attempt()
			start := time.Now()
			out, err := r.pipeline(ctx, s, in.text, firstReq+i)
			d := time.Since(start)
			if err != nil {
				r.opFailed("traced pipeline "+in.name, err)
				continue
			}
			if !on {
				plain = append(plain, ms(d))
				continue
			}
			traced = append(traced, ms(d))
			sqlBytes += int64(out.sqlBytes)
			jsonBytes += int64(out.json)
			if m := digestResults(in.shape, ref).mismatch(digestResults(in.shape, out.res)); m != "" {
				r.wrong("%s: traced pipeline answer differs from QueryContext's: %s", in.name, m)
			}
		}
	}
	r.tr.off = false
	r.set("trace.overhead_pct", (median(traced)-median(plain))/median(plain)*100, "%")
	r.queries, r.sqlBytes, r.jsonBytes = len(traced), sqlBytes, jsonBytes
	return nil
}

// httpLayers reports the handler's self time and the transport time
// (client round trip minus handler) from the HTTP spans.
func (r *run) httpLayers() {
	st := r.tr.stats()
	r.set("server.handler_us", meanSelf(st, "server.handler", time.Microsecond), "us")
	r.set("server.transport_us", meanSelf(st, "client.roundtrip", time.Microsecond), "us")
}

func sumCounters(dbs []*db2rdf.Store) storeCounters {
	var t storeCounters
	for _, s := range dbs {
		c := countersOf(s)
		t.hits += c.hits
		t.misses += c.misses
	}
	return t
}
