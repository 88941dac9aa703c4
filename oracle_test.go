package db2rdf_test

// An independent correctness oracle. Random small datasets and random
// SPARQL queries are evaluated both through the full DB2RDF pipeline
// (schema + optimizer + SQL translation + relational engine) and by a
// direct evaluator of the SPARQL algebra over the triple list. The
// evaluator shares the parser and its AST with the pipeline and
// nothing after them: it does its own BGP matching, joins, left joins,
// unions, FILTER evaluation with SPARQL's error semantics, projection,
// DISTINCT, ORDER BY and slicing.
//
// The generator covers BGPs, OPTIONAL, UNION, group FILTERs over
// = != < > bound isIRI isLiteral ! && ||, DISTINCT, projection and
// ORDER BY over every projected variable with LIMIT/OFFSET, on data
// that mixes IRIs with small integer and string literals. Every query
// must match the oracle under each metamorphic setting: encoded and
// raw chunks, 1 and 4 executor workers, the hybrid and the naive
// optimizer, merging on and off, a plan-cache miss and then a hit, and
// its triple patterns permuted within their groups.
//
// The store extends = and < to plain literals whose lexical form reads
// as a number (an operator extension SPARQL permits); the oracle does
// not model it, and the generated strings are letters.

import (
	"cmp"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"db2rdf"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
	"db2rdf/internal/sparql"
)

// ---------------------------------------------------------------------
// The oracle: SPARQL algebra evaluated directly over a triple list.

// solution is one solution mapping; an absent key is unbound.
type solution map[string]rdf.Term

type oracle struct{ data []rdf.Triple }

// evalQuery answers q as rendered rows (Binding.String form) in the
// order the query fixes: exact when ORDER BY is present, otherwise
// the evaluation order (callers compare those as multisets).
func (o *oracle) evalQuery(q *sparql.Query) [][]string {
	sols := o.pattern(q.Where)
	vars := q.ProjectedVars()
	if len(q.OrderBy) > 0 {
		sort.SliceStable(sols, func(i, j int) bool {
			for _, k := range q.OrderBy {
				v := k.Expr.(*sparql.EVar).Name
				c := orderCompare(sols[i][v], sols[j][v], hasBinding(sols[i], v), hasBinding(sols[j], v))
				if c != 0 {
					return (c < 0) != k.Desc
				}
			}
			return false
		})
	}
	var rows [][]string
	seen := map[string]bool{}
	for _, s := range sols {
		row := make([]string, len(vars))
		for i, v := range vars {
			row[i] = "UNBOUND"
			if t, ok := s[v]; ok {
				row[i] = t.String()
			}
		}
		if q.Distinct {
			key := strings.Join(row, "\x00")
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		rows = append(rows, row)
	}
	lo := int(q.Offset)
	if lo > len(rows) {
		lo = len(rows)
	}
	rows = rows[lo:]
	if q.Limit >= 0 && int(q.Limit) < len(rows) {
		rows = rows[:q.Limit]
	}
	return rows
}

func hasBinding(s solution, v string) bool { _, ok := s[v]; return ok }

// pattern evaluates a group, its FILTERs included.
func (o *oracle) pattern(p *sparql.Pattern) []solution {
	return filterSolutions(o.unfiltered(p), p.Filters)
}

// unfiltered evaluates a group without its own FILTERs. A group's
// elements combine left to right: OPTIONAL left-joins what precedes
// it, anything else joins it.
func (o *oracle) unfiltered(p *sparql.Pattern) []solution {
	switch p.Kind {
	case sparql.Simple:
		out := []solution{{}}
		for _, tp := range p.Triples {
			out = o.matchTriple(out, tp)
		}
		return out
	case sparql.And:
		out := []solution{{}}
		for _, c := range p.Children {
			if c.Kind == sparql.Optional {
				out = o.leftJoin(out, c.Child())
			} else {
				out = join(out, o.pattern(c))
			}
		}
		return out
	case sparql.Or:
		var out []solution
		for _, c := range p.Children {
			out = append(out, o.pattern(c)...)
		}
		return out
	case sparql.Optional:
		return o.leftJoin([]solution{{}}, p.Child())
	}
	panic(fmt.Sprintf("oracle: pattern kind %v", p.Kind))
}

// matchTriple extends every input solution by each data triple the
// pattern matches under it.
func (o *oracle) matchTriple(in []solution, tp *sparql.TriplePattern) []solution {
	var out []solution
	for _, s := range in {
		for _, tr := range o.data {
			ext := solution{}
			for k, v := range s {
				ext[k] = v
			}
			if bindPos(ext, tp.S, tr.S) && bindPos(ext, tp.P, tr.P) && bindPos(ext, tp.O, tr.O) {
				out = append(out, ext)
			}
		}
	}
	return out
}

func bindPos(s solution, tv sparql.TermOrVar, t rdf.Term) bool {
	if !tv.IsVar {
		return tv.Term == t
	}
	if b, ok := s[tv.Var]; ok {
		return b == t
	}
	s[tv.Var] = t
	return true
}

// merge returns the union of two compatible solutions, or false.
func merge(a, b solution) (solution, bool) {
	m := solution{}
	for k, v := range a {
		m[k] = v
	}
	for k, v := range b {
		if w, ok := m[k]; ok && w != v {
			return nil, false
		}
		m[k] = v
	}
	return m, true
}

func join(l, r []solution) []solution {
	var out []solution
	for _, a := range l {
		for _, b := range r {
			if m, ok := merge(a, b); ok {
				out = append(out, m)
			}
		}
	}
	return out
}

// leftJoin is SPARQL's LeftJoin(l, G, F): the optional group's FILTERs
// are the join condition and see the merged solution; a left solution
// with no compatible right solution passing them survives unextended.
func (o *oracle) leftJoin(l []solution, group *sparql.Pattern) []solution {
	r := o.unfiltered(group)
	var out []solution
	for _, a := range l {
		matched := false
		for _, b := range r {
			m, ok := merge(a, b)
			if ok && allTrue(m, group.Filters) {
				out = append(out, m)
				matched = true
			}
		}
		if !matched {
			out = append(out, a)
		}
	}
	return out
}

func filterSolutions(in []solution, filters []sparql.Expr) []solution {
	if len(filters) == 0 {
		return in
	}
	var out []solution
	for _, s := range in {
		if allTrue(s, filters) {
			out = append(out, s)
		}
	}
	return out
}

func allTrue(s solution, filters []sparql.Expr) bool {
	for _, f := range filters {
		if v, ok := evalBool(f, s); !ok || !v {
			return false
		}
	}
	return true
}

// evalBool evaluates a filter expression; ok=false is a SPARQL type
// error, which || and && absorb as the spec's truth tables say and
// every other operator propagates.
func evalBool(e sparql.Expr, s solution) (val, ok bool) {
	switch x := e.(type) {
	case *sparql.EUn:
		if x.Op != "!" {
			panic("oracle: unary " + x.Op)
		}
		v, ok := evalBool(x.X, s)
		return !v, ok
	case *sparql.ECall:
		switch x.Name {
		case "bound":
			return hasBinding(s, x.Args[0].(*sparql.EVar).Name), true
		case "isiri", "isuri", "isliteral":
			t, ok := operand(x.Args[0], s)
			if !ok {
				return false, false
			}
			if x.Name == "isliteral" {
				return t.Kind == rdf.Literal, true
			}
			return t.Kind == rdf.IRI, true
		}
		panic("oracle: call " + x.Name)
	case *sparql.EBin:
		switch x.Op {
		case "&&", "||":
			lv, lok := evalBool(x.L, s)
			rv, rok := evalBool(x.R, s)
			short := x.Op == "||" // the value that decides the result alone
			switch {
			case lok && lv == short, rok && rv == short:
				return short, true
			case lok && rok:
				return !short, true
			}
			return false, false
		}
		l, lok := operand(x.L, s)
		r, rok := operand(x.R, s)
		if !lok || !rok {
			return false, false
		}
		switch x.Op {
		case "=":
			return termEqual(l, r)
		case "!=":
			v, ok := termEqual(l, r)
			return !v, ok
		case "<", ">":
			c, ok := termLess(l, r)
			if !ok {
				return false, false
			}
			if x.Op == "<" {
				return c < 0, true
			}
			return c > 0, true
		}
	}
	panic(fmt.Sprintf("oracle: expression %T", e))
}

func operand(e sparql.Expr, s solution) (rdf.Term, bool) {
	switch x := e.(type) {
	case *sparql.EVar:
		t, ok := s[x.Name]
		return t, ok
	case *sparql.ELit:
		return x.Term, true
	}
	panic(fmt.Sprintf("oracle: operand %T", e))
}

func oracleNumeric(t rdf.Term) (float64, bool) {
	if t.Kind != rdf.Literal || t.Datatype != rdf.XSDInteger {
		return 0, false
	}
	f, err := strconv.ParseFloat(t.Value, 64)
	return f, err == nil
}

func oracleSimple(t rdf.Term) bool {
	return t.Kind == rdf.Literal && t.Lang == "" && (t.Datatype == "" || t.Datatype == rdf.XSDString)
}

// termEqual is SPARQL's = : numeric and string comparison where both
// operands are of that type, else RDFterm-equal, which is a type error
// for two distinct literals.
func termEqual(a, b rdf.Term) (bool, bool) {
	if af, ok := oracleNumeric(a); ok {
		if bf, ok := oracleNumeric(b); ok {
			return af == bf, true
		}
	}
	if oracleSimple(a) && oracleSimple(b) {
		return a.Value == b.Value, true
	}
	if a == b {
		return true, true
	}
	if a.Kind == rdf.Literal && b.Kind == rdf.Literal {
		return false, false
	}
	return false, true
}

// termLess is SPARQL's < and > : defined on two numerics or two
// simple literals, a type error otherwise.
func termLess(a, b rdf.Term) (int, bool) {
	if af, ok := oracleNumeric(a); ok {
		if bf, ok := oracleNumeric(b); ok {
			return cmp.Compare(af, bf), true
		}
	}
	if oracleSimple(a) && oracleSimple(b) {
		return strings.Compare(a.Value, b.Value), true
	}
	return 0, false
}

// orderCompare is the ORDER BY order of SPARQL 1.1 §15.1: unbound,
// then blank nodes, IRIs and literals; among literals, numerics by
// value before all others by lexical form, language tag and datatype.
func orderCompare(a, b rdf.Term, aok, bok bool) int {
	rank := func(t rdf.Term, ok bool) int {
		switch {
		case !ok:
			return 0
		case t.Kind == rdf.Blank:
			return 1
		case t.Kind == rdf.IRI:
			return 2
		}
		if _, num := oracleNumeric(t); num {
			return 3
		}
		return 4
	}
	ra, rb := rank(a, aok), rank(b, bok)
	if ra != rb {
		return ra - rb
	}
	if ra == 3 {
		c, _ := termLess(a, b)
		return c
	}
	return cmp.Or(strings.Compare(a.Value, b.Value), strings.Compare(a.Lang, b.Lang), strings.Compare(a.Datatype, b.Datatype))
}

// ---------------------------------------------------------------------
// The generator: random data and random queries over one vocabulary.

const (
	oracleEntities = 6
	oraclePreds    = 3
)

func oracleIRI(i int) rdf.Term  { return rdf.NewIRI(fmt.Sprintf("http://o/e%d", i)) }
func oraclePred(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://o/p%d", i)) }

// oracleObject draws an object: an entity IRI, a small integer or a
// short string.
func oracleObject(r *rand.Rand) rdf.Term {
	switch r.Intn(4) {
	case 0:
		return rdf.NewInteger(int64(r.Intn(4)))
	case 1:
		return rdf.NewLiteral(string(rune('a' + r.Intn(3))))
	}
	return oracleIRI(r.Intn(oracleEntities))
}

// oracleData produces a small random triple set.
func oracleData(r *rand.Rand) []rdf.Triple {
	n := 4 + r.Intn(30)
	seen := map[rdf.Triple]bool{}
	var out []rdf.Triple
	for i := 0; i < n; i++ {
		tr := rdf.NewTriple(oracleIRI(r.Intn(oracleEntities)), oraclePred(r.Intn(oraclePreds)), oracleObject(r))
		if !seen[tr] {
			seen[tr] = true
			out = append(out, tr)
		}
	}
	return out
}

// genGroup is a generated group graph pattern: its elements in order
// (a run of triple patterns, an OPTIONAL group or a UNION of groups)
// and its FILTERs.
type genGroup struct {
	elems   []genElem
	filters []string
}

type genElem struct {
	triples  []string    // a run of triple patterns, each "s p o"
	optional *genGroup   // OPTIONAL { ... }
	union    []*genGroup // { ... } UNION { ... }
}

type queryGen struct {
	r    *rand.Rand
	vars []string
}

var oracleVars = []string{"a", "b", "c", "d", "e"}

func (g *queryGen) varName() string {
	v := oracleVars[g.r.Intn(len(oracleVars))]
	for _, u := range g.vars {
		if u == v {
			return v
		}
	}
	g.vars = append(g.vars, v)
	return v
}

func (g *queryGen) triple() string {
	s := "?" + g.varName()
	if g.r.Intn(4) == 0 {
		s = oracleIRI(g.r.Intn(oracleEntities)).String()
	}
	p := oraclePred(g.r.Intn(oraclePreds)).String()
	if g.r.Intn(6) == 0 {
		p = "?" + g.varName()
	}
	o := "?" + g.varName()
	if g.r.Intn(3) == 0 {
		o = oracleObject(g.r).String()
	}
	return s + " " + p + " " + o
}

func (g *queryGen) run() genElem {
	e := genElem{}
	for n := 1 + g.r.Intn(2); n > 0; n-- {
		e.triples = append(e.triples, g.triple())
	}
	return e
}

// group generates a group of up to three elements that starts with a
// run of triples; depth bounds the nesting of OPTIONAL and UNION.
func (g *queryGen) group(depth int) *genGroup {
	gr := &genGroup{elems: []genElem{g.run()}}
	for n := g.r.Intn(3); n > 0; n-- {
		k := g.r.Intn(4)
		switch {
		case depth > 0 && k == 0:
			gr.elems = append(gr.elems, genElem{optional: g.group(depth - 1)})
		case depth > 0 && k == 1:
			gr.elems = append(gr.elems, genElem{union: []*genGroup{g.group(depth - 1), g.group(depth - 1)}})
		default:
			gr.elems = append(gr.elems, g.run())
		}
	}
	for n := g.r.Intn(3) / 2; n > 0; n-- {
		gr.filters = append(gr.filters, g.filter(2))
	}
	return gr
}

func (g *queryGen) filterOperand() string {
	switch g.r.Intn(5) {
	case 0:
		return oracleIRI(g.r.Intn(oracleEntities)).String()
	case 1:
		return rdf.NewInteger(int64(g.r.Intn(4))).Value
	case 2:
		return rdf.NewLiteral(string(rune('a' + g.r.Intn(3)))).String()
	}
	return "?" + g.varName()
}

func (g *queryGen) filter(depth int) string {
	k := g.r.Intn(10)
	if depth == 0 {
		k = 3 + g.r.Intn(7)
	}
	switch k {
	case 0:
		return "!(" + g.filter(depth-1) + ")"
	case 1:
		return "(" + g.filter(depth-1) + " && " + g.filter(depth-1) + ")"
	case 2:
		return "(" + g.filter(depth-1) + " || " + g.filter(depth-1) + ")"
	case 3:
		return "bound(?" + g.varName() + ")"
	case 4:
		return "isIRI(?" + g.varName() + ")"
	case 5:
		return "isLiteral(?" + g.varName() + ")"
	}
	ops := []string{"=", "!=", "<", ">"}
	return "(?" + g.varName() + " " + ops[g.r.Intn(len(ops))] + " " + g.filterOperand() + ")"
}

// genQuery is a generated SELECT query.
type genQuery struct {
	where    *genGroup
	distinct bool
	vars     []string // nil for SELECT *
	order    []string // "?v" or "DESC(?v)" for every projected variable
	limit    int      // -1 when absent
	offset   int
}

func genOracleQuery(r *rand.Rand) *genQuery {
	g := &queryGen{r: r}
	q := &genQuery{where: g.group(2), distinct: r.Intn(3) == 0, limit: -1}
	proj := append([]string(nil), g.vars...)
	if r.Intn(4) != 0 {
		r.Shuffle(len(proj), func(i, j int) { proj[i], proj[j] = proj[j], proj[i] })
		proj = proj[:1+r.Intn(len(proj))]
		q.vars = proj
	} else {
		sort.Strings(proj) // SELECT * projects in name order
	}
	if r.Intn(3) == 0 {
		for _, v := range proj {
			key := "?" + v
			if r.Intn(3) == 0 {
				key = "DESC(?" + v + ")"
			}
			q.order = append(q.order, key)
		}
		if r.Intn(2) == 0 {
			q.limit = r.Intn(6)
		}
		if r.Intn(2) == 0 {
			q.offset = r.Intn(4)
		}
	}
	return q
}

// render prints the query; with a non-nil shuffle the triple patterns
// of every run are permuted and the FILTERs move to the front of their
// groups, neither of which changes the query's meaning.
func (q *genQuery) render(shuffle *rand.Rand) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.distinct {
		b.WriteString("DISTINCT ")
	}
	if q.vars == nil {
		b.WriteString("*")
	} else {
		for i, v := range q.vars {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString("?" + v)
		}
	}
	b.WriteString(" WHERE ")
	q.where.render(&b, shuffle)
	if len(q.order) > 0 {
		b.WriteString(" ORDER BY " + strings.Join(q.order, " "))
	}
	if q.limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.limit)
	}
	if q.offset > 0 {
		fmt.Fprintf(&b, " OFFSET %d", q.offset)
	}
	return b.String()
}

func (gr *genGroup) render(b *strings.Builder, shuffle *rand.Rand) {
	b.WriteString("{ ")
	filters := func() {
		for _, f := range gr.filters {
			b.WriteString("FILTER (" + f + ") ")
		}
	}
	if shuffle != nil {
		filters()
	}
	for _, e := range gr.elems {
		switch {
		case e.optional != nil:
			b.WriteString("OPTIONAL ")
			e.optional.render(b, shuffle)
			b.WriteByte(' ')
		case e.union != nil:
			for i, u := range e.union {
				if i > 0 {
					b.WriteString("UNION ")
				}
				u.render(b, shuffle)
				b.WriteByte(' ')
			}
		default:
			ts := append([]string(nil), e.triples...)
			if shuffle != nil {
				shuffle.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
			}
			for _, t := range ts {
				b.WriteString(t + " . ")
			}
		}
	}
	if shuffle == nil {
		filters()
	}
	b.WriteString("}")
}

// ---------------------------------------------------------------------
// Checking the pipeline against the oracle.

// oracleAnswer parses and evaluates text independently of the store.
func oracleAnswer(t testing.TB, data []rdf.Triple, text string) (rows [][]string, ordered bool) {
	t.Helper()
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatalf("oracle: parse %s: %v", text, err)
	}
	return (&oracle{data: data}).evalQuery(q), len(q.OrderBy) > 0
}

// checkAgainstOracle runs text on s and compares with want: row for
// row when the query orders its answer, as multisets otherwise.
func checkAgainstOracle(t testing.TB, s *db2rdf.Store, setting, text string, want [][]string, ordered bool, data []rdf.Triple) {
	t.Helper()
	res, err := s.Query(text)
	if err != nil {
		t.Fatalf("%s: %v\nquery: %s", setting, err, text)
	}
	got, exp := joinRows(renderResults(res)), joinRows(want)
	if !ordered {
		sort.Strings(got)
		sort.Strings(exp)
	}
	if strings.Join(got, "\n") != strings.Join(exp, "\n") {
		t.Fatalf("%s: answer differs from the oracle\nquery: %s\ngot  %d rows:\n  %s\nwant %d rows:\n  %s\ndata:\n%s",
			setting, text, len(got), strings.Join(got, "\n  "), len(exp), strings.Join(exp, "\n  "), dumpTriples(data))
	}
}

func joinRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = strings.Join(row, "|")
	}
	return out
}

func dumpTriples(data []rdf.Triple) string {
	var b strings.Builder
	for _, tr := range data {
		fmt.Fprintf(&b, "  %s %s %s .\n", tr.S, tr.P, tr.O)
	}
	return b.String()
}

// oracleStore opens an in-memory store with opts and loads data, with
// chunk sealing on or off for the load's publishes.
func oracleStore(t testing.TB, opts db2rdf.Options, data []rdf.Triple, encoded bool) *db2rdf.Store {
	t.Helper()
	rel.SetChunkEncoding(encoded)
	defer rel.SetChunkEncoding(true)
	s, err := db2rdf.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadTriples(data); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkQueryOracle checks a query on data under every metamorphic
// setting; permuted is the same query with its triple patterns
// permuted within their groups.
func checkQueryOracle(t testing.TB, data []rdf.Triple, text, permuted string) {
	t.Helper()
	defer rel.SetParallelism(0, 0)
	want, ordered := oracleAnswer(t, data, text)

	base := oracleStore(t, db2rdf.Options{}, data, true)
	for _, workers := range []int{1, 4} {
		rel.SetParallelism(workers, 1)
		before := base.Metrics().Snapshot().PlanCacheHits
		label := fmt.Sprintf("encoded workers=%d", workers)
		checkAgainstOracle(t, base, label, text, want, ordered, data)
		checkAgainstOracle(t, base, label+" (plan-cache hit)", text, want, ordered, data)
		if hits := base.Metrics().Snapshot().PlanCacheHits - before; hits < 1 {
			t.Fatalf("%s: the repeated query missed the plan cache\nquery: %s", label, text)
		}
	}
	rel.SetParallelism(1, 0)
	checkAgainstOracle(t, base, "permuted triple patterns", permuted, want, ordered, data)

	for _, alt := range []struct {
		label   string
		opts    db2rdf.Options
		encoded bool
	}{
		{"raw chunks", db2rdf.Options{}, false},
		{"naive optimizer", db2rdf.Options{DisableHybridOptimizer: true}, true},
		{"merging off", db2rdf.Options{DisableMerging: true}, true},
	} {
		s := oracleStore(t, alt.opts, data, alt.encoded)
		for _, workers := range []int{1, 4} {
			rel.SetParallelism(workers, 1)
			checkAgainstOracle(t, s, fmt.Sprintf("%s workers=%d", alt.label, workers), text, want, ordered, data)
		}
	}
}

// oracleRegressions are fixed inputs that once disagreed with the
// oracle: the seed of the dataset (oracleData) and the query.
var oracleRegressions = []struct {
	dataSeed int64
	query    string
}{
	// = over a literal and a string is a type error, so ! keeps it one.
	{1, `SELECT ?s ?o WHERE { ?s <http://o/p0> ?o . FILTER (!(?o = "a")) }`},
	// < over an IRI and a string is a type error, not an order.
	{1, `SELECT ?s ?o WHERE { ?s <http://o/p1> ?o . FILTER (!(?o < "b")) }`},
	// ORDER BY puts IRIs before literals and numbers before strings.
	{1, `SELECT ?o WHERE { ?s <http://o/p0> ?o . } ORDER BY ?o`},
	// ?c unbound by the first OPTIONAL is compatible with any ?c.
	{1, `SELECT * WHERE { ?a <http://o/p0> ?b . OPTIONAL { ?b <http://o/p1> ?c . } OPTIONAL { ?c <http://o/p2> ?d . } }`},
	// An OPTIONAL group's FILTER is the left join's condition.
	{1, `SELECT * WHERE { ?a <http://o/p0> ?b . OPTIONAL { ?c <http://o/p1> ?d . FILTER (?d = ?b) } }`},
	// A nested group's FILTER sees only the group's variables.
	{1, `SELECT * WHERE { ?a <http://o/p0> ?b . { ?b <http://o/p1> ?c . FILTER (bound(?a)) } }`},
	// An OPTIONAL whose value is a constant must not merge into a star.
	{248, `SELECT DISTINCT ?b ?c WHERE { ?d <http://o/p0> ?a . { ?a <http://o/p0> ?a . ?a <http://o/p2> ?d . OPTIONAL { <http://o/e3> <http://o/p0> ?a . } } UNION { ?a <http://o/p2> <http://o/e5> . } }`},
	// A pattern without variables projects the empty row.
	{1, `SELECT * WHERE { <http://o/e2> <http://o/p2> "c" . }`},
	// A not well-designed OPTIONAL must not move after a later join.
	{1, `SELECT * WHERE { ?a <http://o/p0> ?b . OPTIONAL { ?b <http://o/p1> ?c . } ?c <http://o/p2> ?d . }`},
}

func TestQueryOracle(t *testing.T) {
	for _, reg := range oracleRegressions {
		checkQueryOracle(t, oracleData(rand.New(rand.NewSource(reg.dataSeed))), reg.query, reg.query)
	}
	r := rand.New(rand.NewSource(2013))
	queries := 0
	for trial := 0; trial < 60; trial++ {
		data := oracleData(r)
		for i := 0; i < 5; i++ {
			q := genOracleQuery(r)
			checkQueryOracle(t, data, q.render(nil), q.render(rand.New(rand.NewSource(r.Int63()))))
			queries++
		}
	}
	if queries < 300 {
		t.Fatalf("only %d random queries checked", queries)
	}
}

func FuzzQueryOracle(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 248, 2013} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		data, q := oracleData(r), genOracleQuery(r)
		checkQueryOracle(t, data, q.render(nil), q.render(r))
	})
}

// ---------------------------------------------------------------------
// Plain BGPs against the oracle, across store shapes (K) and planners.

// randomDataset produces a small random triple set of IRIs.
func randomDataset(r *rand.Rand) []rdf.Triple {
	nSubj := 3 + r.Intn(8)
	nPred := 2 + r.Intn(4)
	nObj := 3 + r.Intn(6)
	n := 5 + r.Intn(40)
	seen := map[rdf.Triple]bool{}
	var out []rdf.Triple
	for i := 0; i < n; i++ {
		tr := rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("s%d", r.Intn(nSubj))),
			rdf.NewIRI(fmt.Sprintf("p%d", r.Intn(nPred))),
			rdf.NewIRI(fmt.Sprintf("o%d", r.Intn(nObj))),
		)
		if !seen[tr] {
			seen[tr] = true
			out = append(out, tr)
		}
	}
	return out
}

// randomBGP produces a random 1-4 triple pattern query over the
// dataset's vocabulary with shared variables.
func randomBGP(r *rand.Rand) string {
	vars := []string{"a", "b", "c", "d"}
	pos := func(kind int) string {
		if r.Intn(2) == 0 {
			return "?" + vars[r.Intn(len(vars))]
		}
		switch kind {
		case 0:
			return fmt.Sprintf("<s%d>", r.Intn(8))
		case 1:
			return fmt.Sprintf("<p%d>", r.Intn(4))
		}
		return fmt.Sprintf("<o%d>", r.Intn(6))
	}
	var body strings.Builder
	for n := 1 + r.Intn(4); n > 0; n-- {
		fmt.Fprintf(&body, " %s %s %s .", pos(0), pos(1), pos(2))
	}
	return fmt.Sprintf("SELECT ?a ?b ?c ?d WHERE {%s }", body.String())
}

func canonical(rows [][]string) []string {
	out := joinRows(rows)
	sort.Strings(out)
	return out
}

func TestRandomBGPsAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		data := randomDataset(r)
		query := randomBGP(r)
		want, _ := oracleAnswer(t, data, query)
		s := oracleStore(t, db2rdf.Options{K: 4 + r.Intn(12)}, data, true)
		checkAgainstOracle(t, s, fmt.Sprintf("trial %d", trial), query, want, false, data)
	}
}

// TestRandomBGPsNaiveOptimizerAgainstBruteForce repeats the oracle test
// under the naive flow (different plans, same answers).
func TestRandomBGPsNaiveOptimizerAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		data := randomDataset(r)
		query := randomBGP(r)
		want, _ := oracleAnswer(t, data, query)
		s := oracleStore(t, db2rdf.Options{DisableHybridOptimizer: true, DisableMerging: trial%2 == 0}, data, true)
		checkAgainstOracle(t, s, fmt.Sprintf("trial %d", trial), query, want, false, data)
	}
}
