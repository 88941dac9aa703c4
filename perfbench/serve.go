package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"db2rdf"
	"db2rdf/internal/gen"
	"db2rdf/internal/rdf"
	"db2rdf/results"
)

// serve-mixed: db2rdf-server's handler on loopback, nproc keep-alive
// connections in closed loops, SPARQL JSON results, LUBM(100). Reads
// are the selective LUBM shapes with constants drawn from the generated
// population by a Zipf draw. The first client is the only writer, so
// index folds, compactions and snapshots fall at the same updates in
// every run: it repeats a fixed cycle of two reads, one update and its
// read-your-write probe. Each other client sends a fixed number of
// reads, about as many as it completes while the writer runs, so every
// run does the same work whatever the speed of the code under test.
const (
	serveSnapshotEvery = 64  // epochs between background snapshots
	serveCyclesPerS    = 120 // writer cycles per second of --seconds: cycles = seconds x this
	serveCycleReads    = 2   // the writer's reads per cycle
	serveReaderReads   = 10  // each other client's reads per writer cycle
	servePerEntity     = 8   // triples per minted entity
	serveInsertEnts    = 2   // entities per INSERT DATA: 16 triples
	serveDeleteEnts    = 2   // entities per DELETE DATA: 16 triples
	serveDeleteEvery   = 4   // every 4th update deletes
	zipfS              = 1.2 // skew of the constant draw
)

// serveTemplate is one LUBM query shape whose constant is drawn per
// request. Its text is the corpus query with the constant replaced.
type serveTemplate struct {
	name     string
	constant string // the constant IRI in the corpus text
	class    string // the rdf:type whose instances are the population
}

var serveTemplates = []serveTemplate{
	{"LQ1", "http://lubm/Course5.D0.U0", "GraduateCourse"},
	{"LQ3", "http://lubm/AssistantProfessor0.D0.U0", "AssistantProfessor"},
	{"LQ4", "http://lubm/Dept0.U0", "Department"},
	{"LQ5", "http://lubm/Dept0.U0", "Department"},
	{"LQ7", "http://lubm/AssociateProfessor0.D0.U0", "AssociateProfessor"},
	{"LQ8", "http://lubm/University0", "University"},
	{"LQ10", "http://lubm/Course5.D0.U0", "GraduateCourse"},
	{"LQ13", "http://lubm/University0", "University"},
}

// templateSet holds, per template, its corpus text, its population in
// the seed's rank order and a Zipf draw over the ranks.
type templateSet struct {
	text []string
	pop  [][]string
}

func newTemplateSet(g *gen.Dataset, seed int64) (*templateSet, error) {
	texts := map[string]string{}
	for _, q := range g.Queries {
		texts[q.Name] = q.SPARQL
	}
	byClass := map[string][]string{}
	for _, t := range g.Triples {
		if t.P.Value == rdf.RDFType && strings.HasPrefix(t.O.Value, "http://lubm/") {
			c := strings.TrimPrefix(t.O.Value, "http://lubm/")
			byClass[c] = append(byClass[c], t.S.Value)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	ts := &templateSet{}
	for _, tpl := range serveTemplates {
		text := texts[tpl.name]
		if !strings.Contains(text, "<"+tpl.constant+">") {
			return nil, fmt.Errorf("template %s: constant %s not in the corpus text", tpl.name, tpl.constant)
		}
		pop := append([]string(nil), byClass[tpl.class]...)
		rng.Shuffle(len(pop), func(i, j int) { pop[i], pop[j] = pop[j], pop[i] })
		ts.text = append(ts.text, text)
		ts.pop = append(ts.pop, pop)
	}
	return ts, nil
}

// instantiate is template t's text with constant c.
func (ts *templateSet) instantiate(t int, c string) string {
	return strings.ReplaceAll(ts.text[t], "<"+serveTemplates[t].constant+">", "<"+c+">")
}

// general is template t with its constant turned into the projected
// variable ?k: one baseline query answers every instance at once.
func (ts *templateSet) general(t int) string {
	q := strings.ReplaceAll(ts.text[t], "<"+serveTemplates[t].constant+">", "?k")
	return strings.Replace(q, "SELECT ", "SELECT ?k ", 1)
}

// plannedRead is one read of a client's request sequence.
type plannedRead struct {
	tpl      int
	constant string
	text     string
}

// planReads draws n reads for one client: a uniform template, then a
// Zipf-ranked constant of that template's population.
func (ts *templateSet) planReads(rng *rand.Rand, n int) []plannedRead {
	zipfs := make([]*rand.Zipf, len(ts.pop))
	for i, p := range ts.pop {
		zipfs[i] = rand.NewZipf(rng, zipfS, 1, uint64(len(p)-1))
	}
	out := make([]plannedRead, n)
	for i := range out {
		t := rng.Intn(len(ts.pop))
		c := ts.pop[t][zipfs[t].Uint64()]
		out[i] = plannedRead{tpl: t, constant: c, text: ts.instantiate(t, c)}
	}
	return out
}

// hotShare is the share of planned reads that go to the k most
// frequent texts: how much of the stream a plan cache of k entries
// could serve if writes never emptied it.
func hotShare(plans [][]plannedRead, k int) float64 {
	count := map[string]int{}
	total := 0
	for _, p := range plans {
		for _, pr := range p {
			count[pr.text]++
			total++
		}
	}
	freq := make([]int, 0, len(count))
	for _, n := range count {
		freq = append(freq, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freq)))
	hot := 0
	for _, n := range freq[:min(k, len(freq))] {
		hot += n
	}
	return float64(hot) / float64(total)
}

// serveInstances builds the checked instance of every distinct planned
// read. Each template's answers come from one baseline query with the
// constant as a variable, partitioned by its value.
func serveInstances(ds *dataset, ts *templateSet, plans [][]plannedRead) (map[string]*instance, error) {
	want := map[int]map[string]bool{}
	for _, p := range plans {
		for _, pr := range p {
			if want[pr.tpl] == nil {
				want[pr.tpl] = map[string]bool{}
			}
			want[pr.tpl][pr.constant] = true
		}
	}
	o, err := newOracle(ds)
	if err != nil {
		return nil, err
	}
	out := map[string]*instance{}
	for t, consts := range want {
		res, err := o.ts.Query(ts.general(t))
		if err != nil {
			return nil, fmt.Errorf("%s: baseline: %w", serveTemplates[t].name, err)
		}
		kc := -1
		var vars []string
		var cols []int
		for i, v := range res.Vars {
			if v == "k" {
				kc = i
			} else {
				vars = append(vars, v)
				cols = append(cols, i)
			}
		}
		rowsOf := map[string][]int{}
		for i, row := range res.Rows {
			rowsOf[row[kc].Value] = append(rowsOf[row[kc].Value], i)
		}
		for c := range consts {
			text := ts.instantiate(t, c)
			sh, err := shapeOf(text)
			if err != nil {
				return nil, err
			}
			rows := rowsOf[c]
			out[text] = &instance{
				name:  serveTemplates[t].name + " " + c,
				group: serveTemplates[t].name,
				text:  text,
				shape: sh,
				want: digest(sh, false, vars, len(rows), func(r, c int) (rdf.Term, bool) {
					return res.Rows[rows[r]][cols[c]], res.Bound[rows[r]][cols[c]]
				}),
			}
		}
	}
	return out, nil
}

// clientLog is what one client measured, and the responses it received,
// kept to be checked once the timed phase is over so that decoding and
// checking them is neither timed nor counted in alloc_bytes_per_op.
type clientLog struct {
	reads   []float64            // ms
	byTpl   map[string][]float64 // ms per template
	updates []float64            // ms
	ops     int                  // requests completed, probes included
	seen    map[answerKey]bool   // read answers already kept for the check
	answers []keptAnswer
	probes  []keptAnswer
	counts  []keptUpdate
}

// answerKey is a read text and the hash of one answer body to it. An
// answer byte-identical to one already kept is not kept again.
type answerKey struct {
	text string
	h    uint64
}

// keptAnswer is a read or probe answer body awaiting its check; op is
// set for a probe.
type keptAnswer struct {
	in   *instance
	op   *writeOp
	body []byte
}

// keptUpdate is what one update request returned: the response body
// over HTTP, or the counts from the traced in-process path.
type keptUpdate struct {
	op                *writeOp
	req               int
	body              []byte
	inserted, deleted int
}

func newClientLog(reads, updates int) *clientLog {
	return &clientLog{
		reads:   make([]float64, 0, reads),
		byTpl:   map[string][]float64{},
		updates: make([]float64, 0, updates),
		seen:    make(map[answerKey]bool, reads),
		probes:  make([]keptAnswer, 0, updates),
		counts:  make([]keptUpdate, 0, updates),
	}
}

func serveMixed(r *run) error {
	ctx := context.Background()
	ds := newDataset("lubm100", gen.LUBM(100))
	ts, err := newTemplateSet(ds.gen, r.seed)
	if err != nil {
		return err
	}
	clients := r.workers
	cycles := r.seconds * serveCyclesPerS
	plans := make([][]plannedRead, clients)
	for c := range plans {
		n := cycles * serveReaderReads
		if c == 0 {
			n = cycles * serveCycleReads
		}
		plans[c] = ts.planReads(rand.New(rand.NewSource(r.seed*1000+int64(c))), n)
	}
	ins, err := serveInstances(ds, ts, plans)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serve-mixed: %d distinct texts planned; the 256 most frequent carry %.0f%% of the planned reads\n", len(ins), 100*hotShare(plans, 256))
	ds.gen = nil
	st, err := r.setup([]*dataset{ds}, serveSnapshotEvery)
	if err != nil {
		return err
	}
	s := st.db[0]
	ep, err := r.serve(s)
	if err != nil {
		return err
	}
	cls := make([]*client, clients)
	for c := range cls {
		cls[c] = r.newClient(ep)
	}
	// Untimed warm-up: each connection sends the first reads of its plan.
	for c, cl := range cls {
		for _, pr := range plans[c][:min(16, len(plans[c]))] {
			r.checkedHTTPRead(cl, ins[pr.text], 0)
		}
	}
	ws := newWriteStream(r.seed, "serve", servePerEntity, serveInsertEnts, serveDeleteEnts, serveDeleteEvery)
	ops := make([]writeOp, cycles)
	for i := range ops {
		ops[i] = ws.next()
	}
	logs := make([]*clientLog, clients)
	for c := range logs {
		logs[c] = newClientLog(len(plans[c]), cycles)
	}
	c0 := countersOf(s)
	alloc0 := heapAllocated()
	var wg sync.WaitGroup
	start := time.Now()
	for c := range cls {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if c == 0 {
				r.runWriter(logs[c], cls[c], s, plans[c], ins, ops)
			} else {
				r.runReader(logs[c], cls[c], plans[c], ins, c)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	alloc1 := heapAllocated()
	c1 := countersOf(s)
	reads, updates := 0, 0
	for _, l := range logs {
		reads += len(l.reads)
		updates += len(l.updates)
	}
	fmt.Fprintf(os.Stderr, "serve-mixed: %d reads, %d updates, one request in %.1f an update, %.1f s timed\n",
		reads, updates, float64(reads+updates)/float64(max(updates, 1)), wall.Seconds())
	for _, cl := range cls {
		cl.close()
	}
	if err := ep.stop(); err != nil {
		return err
	}

	var all, upd []float64
	byTpl := map[string][]float64{}
	done := 0
	for _, l := range logs {
		l.check(r)
		all = append(all, l.reads...)
		upd = append(upd, l.updates...)
		for k, v := range l.byTpl {
			byTpl[k] = append(byTpl[k], v...)
		}
		done += l.ops
	}
	if r.trace {
		r.set("db2rdf.plancache_hit_ratio", hitRatio(c0, c1), "ratio")
		r.writeCounters(c0, c1, len(upd))
		if err := r.serveReplay(ctx, s, plans, ins); err != nil {
			return err
		}
	} else {
		r.readMetrics(all, byTpl, float64(len(all))/wall.Seconds())
		r.updateMetrics(upd)
		r.set("alloc_bytes_per_op", float64(alloc1-alloc0)/float64(done), "bytes")
	}
	live := ws.liveLines()
	if err := r.closeAndRecover(st, [][]string{live}, st.triples()+len(live)); err != nil {
		return err
	}
	if r.trace {
		r.layerMetrics()
	}
	return nil
}

// runWriter runs the writing client's closed loop: per update of ops,
// serveCycleReads reads, the update and its read-your-write probe.
func (r *run) runWriter(l *clientLog, cl *client, s *db2rdf.Store, plan []plannedRead, ins map[string]*instance, ops []writeOp) {
	req := 0
	for i := range ops {
		for _, pr := range plan[i*serveCycleReads : (i+1)*serveCycleReads] {
			req++
			l.read(r, cl, ins[pr.text], req)
		}
		req++
		op := &ops[i]
		if d, u, ok := r.sendUpdate(cl, s, op, req); ok {
			l.updates = append(l.updates, ms(d))
			l.counts = append(l.counts, u)
			l.ops++
		}
		r.attempt()
		if body, err := cl.query(op.probe, req); err != nil {
			r.opFailed("probe", err)
		} else {
			l.probes = append(l.probes, keptAnswer{op: op, body: body})
			l.ops++
		}
	}
}

// runReader runs a reading client's closed loop over its plan.
func (r *run) runReader(l *clientLog, cl *client, plan []plannedRead, ins map[string]*instance, c int) {
	for k, pr := range plan {
		l.read(r, cl, ins[pr.text], c*10_000_000+k+1)
	}
}

// read sends one timed read and keeps its answer for the check unless
// an identical answer to the same text is kept already.
func (l *clientLog) read(r *run, cl *client, in *instance, req int) {
	d, body, ok := r.httpRead(cl, in, req)
	if !ok {
		return
	}
	l.reads = append(l.reads, ms(d))
	l.byTpl[in.group] = append(l.byTpl[in.group], ms(d))
	l.ops++
	k := answerKey{in.text, hash64(body)}
	if !l.seen[k] {
		l.seen[k] = true
		l.answers = append(l.answers, keptAnswer{in: in, body: body})
	}
}

// check checks every kept answer and update response.
func (l *clientLog) check(r *run) {
	for _, a := range l.answers {
		r.checkBody(a.in, a.body)
	}
	for _, p := range l.probes {
		res, err := results.ReadJSON(bytes.NewReader(p.body))
		if err != nil {
			r.wrong("probe: undecodable answer: %v", err)
			continue
		}
		r.checkProbe(*p.op, probeRows(res))
	}
	for _, u := range l.counts {
		r.checkCounts(u)
	}
}

// httpRead sends one read and returns its latency and answer body.
func (r *run) httpRead(cl *client, in *instance, req int) (time.Duration, []byte, bool) {
	r.attempt()
	start := time.Now()
	body, err := cl.query(in.text, req)
	d := time.Since(start)
	if err != nil {
		r.opFailed("query "+in.name, err)
		return 0, nil, false
	}
	return d, body, true
}

// checkedHTTPRead sends one untimed read and checks its answer at once.
func (r *run) checkedHTTPRead(cl *client, in *instance, req int) {
	if _, body, ok := r.httpRead(cl, in, req); ok {
		r.checkBody(in, body)
	}
}

// checkBody decodes a SPARQL JSON answer and checks it.
func (r *run) checkBody(in *instance, body []byte) {
	res, err := results.ReadJSON(bytes.NewReader(body))
	if err != nil {
		r.wrong("%s: undecodable answer: %v", in.name, err)
		return
	}
	r.checkRead(in, res)
}

// sendUpdate sends one update — over HTTP, or in a traced run through
// the traced layer calls — and returns its latency and response.
func (r *run) sendUpdate(cl *client, s *db2rdf.Store, op *writeOp, req int) (time.Duration, keptUpdate, bool) {
	r.attempt()
	u := keptUpdate{op: op, req: req}
	start := time.Now()
	var err error
	if r.trace {
		u.inserted, u.deleted, err = r.tracedUpdate(s, op.text, req)
	} else {
		u.body, err = cl.update(op.text, req)
	}
	d := time.Since(start)
	if err != nil {
		r.opFailed(fmt.Sprintf("update %d", req), err)
		return 0, u, false
	}
	return d, u, true
}

// checkCounts compares the counts an update reported with the model's.
func (r *run) checkCounts(u keptUpdate) {
	if u.body != nil {
		var got struct{ Inserted, Deleted int }
		if err := json.Unmarshal(u.body, &got); err != nil {
			r.wrong("update %d: undecodable response: %v", u.req, err)
			return
		}
		u.inserted, u.deleted = got.Inserted, got.Deleted
	}
	if u.inserted != u.op.inserted || u.deleted != u.op.deleted {
		r.wrong("update %d: inserted %d deleted %d, expected %d and %d", u.req, u.inserted, u.deleted, u.op.inserted, u.op.deleted)
	}
}

// probeRows renders a probe answer as sorted "predicate<TAB>object" rows.
func probeRows(res *db2rdf.Results) []string {
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, row[0].Term.String()+"\t"+row[1].Term.String())
	}
	sort.Strings(out)
	return out
}
