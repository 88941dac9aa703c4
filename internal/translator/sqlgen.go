package translator

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"db2rdf/internal/rdf"
	"db2rdf/internal/sparql"
)

// Backend abstracts the relational schema a plan is translated onto.
// The DB2RDF backend lives in this package; the triple-store and
// predicate-oriented (vertical) baselines implement it in
// internal/baselines. Everything except access-node generation —
// UNION, OPTIONAL, FILTER handling and the final select — is shared.
type Backend interface {
	// Access translates one PlanAccess node, returning the output
	// context.
	Access(g *Gen, n *PlanNode, in Ctx) (Ctx, error)
	// LookupID resolves a constant term without interning; absent
	// terms report false (they can match nothing).
	LookupID(t rdf.Term) (int64, bool)
	// EncodeID interns a constant (FILTER constants must be decodable
	// by the value functions even when absent from the data).
	EncodeID(t rdf.Term) int64
	// MergeSafe reports whether the given triples may be answered by a
	// single row access (§3.2.1); backends without star storage return
	// false.
	MergeSafe(m MethodT, ts ...*sparql.TriplePattern) bool
}

// Result is a translated query: the SQL text plus the metadata the
// caller needs to decode the relational result back into SPARQL
// bindings.
type Result struct {
	// SQL is the full statement (WITH ... SELECT ...). Empty when the
	// query has no triple patterns.
	SQL string
	// Columns holds the projected variable names, in result-column
	// order. Trailing hidden columns (ORDER BY keys that are not
	// projected) follow them.
	Columns []string
	// Hidden is the number of trailing hidden columns to drop.
	Hidden int
	// Ask marks an ASK query (one row means true).
	Ask bool
	// Plan is the query plan the SQL was generated from.
	Plan *PlanNode
	// Traces records, per access node, the CTE it emitted and the
	// optimizer's TMC estimates for the triples it answers. EXPLAIN
	// ANALYZE joins Cte against executed per-CTE row counts to put
	// estimates next to actual cardinalities.
	Traces []AccessTrace
}

// AccessTrace links one translated access node to its generated CTE.
type AccessTrace struct {
	// Cte is the name of the CTE the access emitted (before any FILTER
	// wrapping), as produced by Gen.Emit (e.g. "QT3").
	Cte    string
	Method MethodT
	Merge  MergeKind
	// TripleIDs and Ests are aligned: the pattern IDs answered by this
	// access and the optimizer's TMC estimate for each.
	TripleIDs []int
	Ests      []float64
	// Est is the node-level estimate: the max member estimate for
	// star-merged (AND/OPT) accesses — the merged row set is keyed by
	// the shared entity — and the sum for OR merges.
	Est float64
}

// Translate generates SQL for a query plan over the given backend.
func Translate(q *sparql.Query, plan *PlanNode, backend Backend) (*Result, error) {
	g := &Gen{backend: backend, varCol: map[string]string{}, colTaken: map[string]bool{}, nonLiteral: nonLiteralVars(q.Where)}
	res := &Result{Ask: q.Ask, Plan: plan}
	if len(q.Where.AllTriples()) == 0 {
		return res, nil
	}
	out, err := g.Node(plan, Ctx{Vars: map[string]bool{}})
	if err != nil {
		return nil, err
	}
	final, err := g.finalSelect(q, out, res)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	if len(g.ctes) > 0 {
		b.WriteString("WITH ")
		for i, c := range g.ctes {
			if i > 0 {
				b.WriteString(",\n")
			}
			b.WriteString(c.name)
			b.WriteString(" AS (")
			b.WriteString(c.body)
			b.WriteString(")")
		}
		b.WriteString("\n")
	}
	b.WriteString(final)
	res.SQL = b.String()
	res.Traces = g.traces
	return res, nil
}

// nonLiteralVars returns the variables of p that occur in no object
// position.
func nonLiteralVars(p *sparql.Pattern) map[string]bool {
	out, object := map[string]bool{}, map[string]bool{}
	for _, t := range p.AllTriples() {
		out[t.S.Var], out[t.P.Var], object[t.O.Var] = true, true, true
	}
	for v := range object {
		delete(out, v)
	}
	return out
}

type cteDef struct{ name, body string }

// Ctx tracks the translation context: the current CTE and the set of
// SPARQL variables bound in it (stored under their column names).
type Ctx struct {
	Cte  string
	Vars map[string]bool
	// Maybe holds the variables of Vars that may be NULL (unbound) in
	// some row: bound only under an OPTIONAL or in some UNION arms.
	Maybe map[string]bool
}

// BoundVars returns the bound variables in sorted order.
func (c Ctx) BoundVars() []string {
	out := make([]string, 0, len(c.Vars))
	for v := range c.Vars {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Gen is the SQL generation state shared across backends.
type Gen struct {
	backend  Backend
	ctes     []cteDef
	cteN     int
	varCol   map[string]string
	colTaken map[string]bool
	traces   []AccessTrace
	// nonLiteral holds the variables that every triple pattern binds
	// in subject or predicate position, so they never hold a literal.
	nonLiteral map[string]bool
}

// ColFor returns the stable column name of a SPARQL variable.
func (g *Gen) ColFor(v string) string {
	if c, ok := g.varCol[v]; ok {
		return c
	}
	base := "v_"
	for _, r := range v {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_':
			base += string(r)
		case r >= 'A' && r <= 'Z':
			base += string(r - 'A' + 'a')
		default:
			base += "_"
		}
	}
	name := base
	for i := 2; g.colTaken[name]; i++ {
		name = fmt.Sprintf("%s_%d", base, i)
	}
	g.colTaken[name] = true
	g.varCol[v] = name
	return name
}

// Emit registers a new CTE body and returns its name.
func (g *Gen) Emit(body string) string {
	g.cteN++
	name := fmt.Sprintf("QT%d", g.cteN)
	g.ctes = append(g.ctes, cteDef{name: name, body: body})
	return name
}

// IDOf resolves a constant term to its dictionary id; absent terms get
// -1, which matches no row (the paper's empty-result fast path).
func (g *Gen) IDOf(t rdf.Term) int64 {
	id, ok := g.backend.LookupID(t)
	if !ok {
		return -1
	}
	return id
}

// Carry renders "alias.col AS col" projections for every bound
// variable.
func (g *Gen) Carry(in Ctx, alias string) []string {
	var out []string
	for _, v := range in.BoundVars() {
		c := g.ColFor(v)
		out = append(out, fmt.Sprintf("%s.%s AS %s", alias, c, c))
	}
	return out
}

// Node translates one plan node, returning the output context.
//
// SPARQL joins an unbound variable with any value, which an input
// threaded into an access (an equality on the variable's column)
// cannot express. A node that mentions a variable the input may leave
// unbound is therefore translated on its own and joined to the input
// NULL-tolerantly.
func (g *Gen) Node(n *PlanNode, in Ctx) (Ctx, error) {
	if n.Kind != PlanOpt && in.Cte != "" && len(in.Maybe) > 0 {
		for v := range planVars(n) {
			if in.Maybe[v] {
				own, err := g.node(n, Ctx{Vars: map[string]bool{}})
				if err != nil {
					return Ctx{}, err
				}
				return g.join(in, own, "JOIN", nil)
			}
		}
	}
	return g.node(n, in)
}

func (g *Gen) node(n *PlanNode, in Ctx) (Ctx, error) {
	switch n.Kind {
	case PlanAnd:
		cur := in
		var err error
		for _, c := range n.Children {
			cur, err = g.Node(c, cur)
			if err != nil {
				return Ctx{}, err
			}
		}
		return g.applyFilters(n, cur)
	case PlanOr:
		return g.orNode(n, in)
	case PlanOpt:
		return g.optNode(n, in)
	case PlanAccess:
		out, err := g.backend.Access(g, n, in)
		if err != nil {
			return Ctx{}, err
		}
		if out.Cte != "" {
			tr := AccessTrace{Cte: out.Cte, Method: n.Method, Merge: n.Merge}
			for _, it := range n.Items {
				tr.TripleIDs = append(tr.TripleIDs, it.Triple.ID)
				tr.Ests = append(tr.Ests, it.Est)
				if n.Merge == OrMerge {
					tr.Est += it.Est
				} else if it.Est > tr.Est {
					tr.Est = it.Est
				}
			}
			g.traces = append(g.traces, tr)
		}
		out.Maybe = accessMaybe(n, in)
		return g.applyFilters(n, out)
	}
	return Ctx{}, fmt.Errorf("translator: unknown plan node kind %d", n.Kind)
}

// accessMaybe returns the possibly-unbound variables after an access:
// the input's, plus the new ones that not every row binds — those of
// only the optional items of an OPTIONAL merge, or of only some
// disjuncts of an OR merge.
func accessMaybe(n *PlanNode, in Ctx) map[string]bool {
	maybe := maps.Clone(in.Maybe)
	binds := map[string]int{} // required items binding each variable
	required := 0
	for _, it := range n.Items {
		if !it.Optional {
			required++
			for _, v := range it.Triple.Vars() {
				binds[v]++
			}
		}
	}
	for v := range planVars(n) {
		if !in.Vars[v] && (binds[v] == 0 || n.Merge == OrMerge && binds[v] < required) {
			if maybe == nil {
				maybe = map[string]bool{}
			}
			maybe[v] = true
		}
	}
	return maybe
}

// planVars returns the variables of the triple patterns under n.
func planVars(n *PlanNode) map[string]bool {
	out := map[string]bool{}
	for _, it := range n.Items {
		for _, v := range it.Triple.Vars() {
			out[v] = true
		}
	}
	for _, c := range n.Children {
		for v := range planVars(c) {
			out[v] = true
		}
	}
	return out
}

// orNode translates a UNION: arms evaluated from the same input
// context, results aligned on the union of their variables.
func (g *Gen) orNode(n *PlanNode, in Ctx) (Ctx, error) {
	var arms []Ctx
	allVars := map[string]bool{}
	for v := range in.Vars {
		allVars[v] = true
	}
	for _, c := range n.Children {
		ac, err := g.Node(c, in)
		if err != nil {
			return Ctx{}, err
		}
		for v := range ac.Vars {
			allVars[v] = true
		}
		arms = append(arms, ac)
	}
	ordered := make([]string, 0, len(allVars))
	for v := range allVars {
		ordered = append(ordered, v)
	}
	sort.Strings(ordered)
	maybe := map[string]bool{}
	var parts []string
	for _, a := range arms {
		var sel []string
		for _, v := range ordered {
			col := g.ColFor(v)
			if a.Vars[v] {
				sel = append(sel, fmt.Sprintf("A.%s AS %s", col, col))
			} else {
				sel = append(sel, fmt.Sprintf("NULL AS %s", col))
			}
			if !a.Vars[v] || a.Maybe[v] {
				maybe[v] = true
			}
		}
		if len(sel) == 0 {
			sel = []string{"1 AS one"}
		}
		parts = append(parts, fmt.Sprintf("SELECT %s FROM %s AS A", strings.Join(sel, ", "), a.Cte))
	}
	name := g.Emit(strings.Join(parts, "\nUNION ALL\n"))
	out := Ctx{Cte: name, Vars: allVars, Maybe: maybe}
	return g.applyFilters(n, out)
}

// optNode translates OPTIONAL as a left outer join of the input with
// the independently translated optional block. The block's own
// FILTERs are the join condition — SPARQL evaluates them over the
// merged solution — and the node's filters, those of a group whose
// only element is the OPTIONAL, follow the join.
func (g *Gen) optNode(n *PlanNode, in Ctx) (Ctx, error) {
	block := *n.Children[0]
	cond := block.Filters
	block.Filters = nil
	// Translate the optional block standalone (unbound entity lookups
	// degrade to scans inside the backend's Access).
	oc, err := g.Node(&block, Ctx{Vars: map[string]bool{}})
	if err != nil {
		return Ctx{}, err
	}
	if in.Cte == "" {
		// OPTIONAL with no required part: it degenerates to the block
		// itself (every solution of the block).
		oc, err = g.filterCtx(cond, oc, oc.Vars)
	} else {
		oc, err = g.join(in, oc, "LEFT OUTER JOIN", cond)
	}
	if err != nil {
		return Ctx{}, err
	}
	return g.applyFilters(n, oc)
}

// join joins left (alias P) with right (alias O) on their shared
// variables, rendering cond over the merged solution as further ON
// conjuncts. A shared variable that either side may leave unbound is
// compatible with anything and takes the bound side's value.
func (g *Gen) join(left, right Ctx, kind string, cond []sparql.Expr) (Ctx, error) {
	outer := kind != "JOIN"
	all := map[string]bool{}
	for v := range left.Vars {
		all[v] = true
	}
	for v := range right.Vars {
		all[v] = true
	}
	vars := Ctx{Vars: all}.BoundVars()
	maybe := map[string]bool{}
	varExpr := map[string]string{}
	var on, sel []string
	for _, v := range vars {
		c := g.ColFor(v)
		l, r := left.Vars[v], right.Vars[v]
		lm, rm := left.Maybe[v], right.Maybe[v]
		expr := "P." + c
		switch {
		case l && r && (lm || rm):
			on = append(on, fmt.Sprintf("(P.%s = O.%s OR P.%s IS NULL OR O.%s IS NULL)", c, c, c, c))
			expr = fmt.Sprintf("COALESCE(P.%s, O.%s)", c, c)
			maybe[v] = lm && (rm || outer)
		case l && r:
			on = append(on, fmt.Sprintf("P.%s = O.%s", c, c))
		case r:
			expr = "O." + c
			maybe[v] = rm || outer
		default:
			maybe[v] = lm
		}
		varExpr[v] = expr
		sel = append(sel, fmt.Sprintf("%s AS %s", expr, c))
	}
	for _, f := range cond {
		c, err := g.filterSQL(f, varExpr)
		if err != nil {
			return Ctx{}, err
		}
		on = append(on, c)
	}
	if len(on) == 0 {
		on = append(on, "1 = 1")
	}
	if len(sel) == 0 {
		sel = []string{"1 AS one"}
	}
	body := fmt.Sprintf("SELECT %s FROM %s AS P %s %s AS O ON %s",
		strings.Join(sel, ", "), left.Cte, kind, right.Cte, strings.Join(on, " AND "))
	return Ctx{Cte: g.Emit(body), Vars: all, Maybe: maybe}, nil
}

// applyFilters applies n's FILTERs to in. A FILTER belongs to its
// group: it sees the variables of the group's own triple patterns,
// and any other variable of the input as unbound.
func (g *Gen) applyFilters(n *PlanNode, in Ctx) (Ctx, error) {
	if len(n.Filters) == 0 {
		return in, nil
	}
	return g.filterCtx(n.Filters, in, planVars(n))
}

// filterCtx wraps the current CTE in a select filtering by every
// expression, with the variables outside scope unbound.
func (g *Gen) filterCtx(filters []sparql.Expr, in Ctx, scope map[string]bool) (Ctx, error) {
	if len(filters) == 0 || in.Cte == "" {
		return in, nil
	}
	varExpr := map[string]string{}
	for v := range in.Vars {
		if scope[v] {
			varExpr[v] = "P." + g.ColFor(v)
		}
	}
	var conds []string
	for _, f := range filters {
		c, err := g.filterSQL(f, varExpr)
		if err != nil {
			return Ctx{}, err
		}
		conds = append(conds, c)
	}
	sel := g.Carry(in, "P")
	if len(sel) == 0 {
		sel = []string{"1 AS one"}
	}
	body := fmt.Sprintf("SELECT %s FROM %s AS P WHERE %s",
		strings.Join(sel, ", "), in.Cte, strings.Join(conds, " AND "))
	name := g.Emit(body)
	return Ctx{Cte: name, Vars: in.Vars, Maybe: in.Maybe}, nil
}

// ValPos returns the value position of a triple under a method (the
// object for subject-keyed access, the subject for object-keyed).
func ValPos(t *sparql.TriplePattern, m MethodT) sparql.TermOrVar {
	if m == MethodACO {
		return t.S
	}
	return t.O
}

// finalSelect renders the outer SELECT: projection, DISTINCT, ORDER
// BY, LIMIT/OFFSET.
func (g *Gen) finalSelect(q *sparql.Query, out Ctx, res *Result) (string, error) {
	if q.Ask {
		res.Columns = []string{"ok"}
		return fmt.Sprintf("SELECT 1 AS ok FROM %s AS P LIMIT 1", out.Cte), nil
	}
	proj := q.ProjectedVars()
	var sel []string
	for _, v := range proj {
		c := g.ColFor(v)
		if out.Vars[v] {
			sel = append(sel, fmt.Sprintf("P.%s AS %s", c, c))
		} else {
			sel = append(sel, fmt.Sprintf("NULL AS %s", c))
		}
		res.Columns = append(res.Columns, v)
	}
	// ORDER BY keys that reference unprojected variables become hidden
	// trailing columns.
	projSet := map[string]bool{}
	for _, v := range proj {
		projSet[v] = true
	}
	var orderExprs []string
	for _, k := range q.OrderBy {
		vars := map[string]bool{}
		sparql.ExprVars(k.Expr, vars)
		for v := range vars {
			if !projSet[v] && out.Vars[v] {
				c := g.ColFor(v)
				sel = append(sel, fmt.Sprintf("P.%s AS %s", c, c))
				res.Columns = append(res.Columns, v)
				res.Hidden++
				projSet[v] = true
			}
		}
		varExpr := map[string]string{}
		for v := range out.Vars {
			varExpr[v] = g.ColFor(v)
		}
		e, err := g.orderKeySQL(k.Expr, varExpr)
		if err != nil {
			return "", err
		}
		if k.Desc {
			e += " DESC"
		}
		orderExprs = append(orderExprs, e)
	}
	if len(sel) == 0 {
		// No variable to project: each solution is the empty row.
		sel = []string{"1 AS one"}
		res.Columns = append(res.Columns, "one")
		res.Hidden++
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	b.WriteString(strings.Join(sel, ", "))
	fmt.Fprintf(&b, " FROM %s AS P", out.Cte)
	if len(orderExprs) > 0 {
		b.WriteString(" ORDER BY ")
		b.WriteString(strings.Join(orderExprs, ", "))
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	if q.Offset > 0 {
		fmt.Fprintf(&b, " OFFSET %d", q.Offset)
	}
	return b.String(), nil
}

// orderKeySQL renders an ORDER BY key over the projected columns.
func (g *Gen) orderKeySQL(e sparql.Expr, varExpr map[string]string) (string, error) {
	if v, ok := e.(*sparql.EVar); ok {
		c, bound := varExpr[v.Name]
		if !bound {
			return "NULL", nil
		}
		return fmt.Sprintf("dsort(%s)", c), nil
	}
	return g.numSQL(e, varExpr)
}
