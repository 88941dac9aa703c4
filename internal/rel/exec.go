package rel

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"
)

// ResultSet is the outcome of a query.
type ResultSet struct {
	Columns []string
	Rows    []Row
}

// Query parses and executes one SQL statement.
func (db *DB) Query(sql string) (*ResultSet, error) {
	q, err := ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	return db.Exec(q)
}

// Exec executes a parsed query with no deadline and no budgets.
func (db *DB) Exec(q *Query) (*ResultSet, error) {
	return db.ExecContext(context.Background(), q, Limits{})
}

// exec is one statement execution: the database plus the query's
// governance state (cancellation signal and budget counters), threaded
// through every operator so long-running loops can checkpoint. prof is
// nil unless the execution is profiled (AnalyzeContext); every
// instrumentation hook is behind a nil check so the unprofiled path
// does no profiling work at all.
type exec struct {
	db   *DB
	gov  *govern
	prof *profiler
}

// ExecContext executes a parsed query under ctx and lim (see govern.go
// for the governance model). Cancellation and deadline expiry surface
// as ErrCanceled / ErrDeadlineExceeded, budget trips as *BudgetError,
// each within one chunk (checkpointRows rows) of work. Any panic
// raised during execution — in an operator, a compiled-expression
// closure, or a morsel worker — is recovered and returned as a
// *PanicError, leaving the DB fully usable.
func (db *DB) ExecContext(ctx context.Context, q *Query, lim Limits) (*ResultSet, error) {
	return db.execContext(ctx, q, lim, nil)
}

// execContext is the shared body of ExecContext (prof == nil) and
// AnalyzeContext (prof records per-operator and per-CTE actuals).
func (db *DB) execContext(ctx context.Context, q *Query, lim Limits, prof *profiler) (rs *ResultSet, err error) {
	defer func() {
		if p := recover(); p != nil {
			rs, err = nil, recoveredError(p)
		}
	}()
	ex := &exec{db: db, gov: newGovern(ctx, lim), prof: prof}
	if prof != nil {
		defer func() {
			prof.stats.BudgetRowsCharged = ex.gov.rows.Load()
			prof.stats.BudgetBytesCharged = ex.gov.bytes.Load()
		}()
	}
	env := make(map[string]*relation)
	live := cteLiveColumns(q)
	for i, cte := range q.CTEs {
		if err := ex.gov.check(CkCore); err != nil {
			return nil, err
		}
		name := strings.ToLower(cte.Name)
		if prof != nil {
			prof.scope = name
		}
		rs, err := ex.evalSelectLive(cte.Select, env, live[i])
		if err != nil {
			return nil, fmt.Errorf("in CTE %s: %w", cte.Name, err)
		}
		if prof != nil {
			prof.stats.CTERows[name] = int64(len(rs.Rows))
		}
		env[name] = resultToRelation(rs)
	}
	if prof != nil {
		prof.scope = ""
	}
	return ex.evalSelect(q.Body, env)
}

// resultToRelation wraps a result set as an unqualified relation.
func resultToRelation(rs *ResultSet) *relation {
	cols := make([]string, len(rs.Columns))
	for i, c := range rs.Columns {
		cols[i] = strings.ToLower(c)
	}
	r := newRelation(cols)
	r.rows = rs.Rows
	return r
}

// aliased returns a copy of base with columns qualified by alias.
func aliased(base *relation, alias string) *relation {
	alias = strings.ToLower(alias)
	cols := make([]string, len(base.cols))
	for i, c := range base.cols {
		// Strip any existing qualification.
		if j := strings.LastIndexByte(c, '.'); j >= 0 {
			c = c[j+1:]
		}
		cols[i] = alias + "." + c
	}
	r := newRelation(cols)
	r.rows = base.rows
	r.aliases[alias] = true
	return r
}

func (ex *exec) evalSelect(s *Select, env map[string]*relation) (*ResultSet, error) {
	return ex.evalSelectLive(s, env, nil)
}

// evalSelectLive is evalSelect with a live-output-column set (nil =
// all): expression items outside it are skipped, their slots left
// NULL. Pruning is only sound when the select cannot observe its own
// dead columns, so it is disabled under UNION, DISTINCT and ORDER BY.
func (ex *exec) evalSelectLive(s *Select, env map[string]*relation, live map[string]bool) (*ResultSet, error) {
	if len(s.Cores) > 1 || s.Cores[0].Distinct || len(s.OrderBy) > 0 {
		live = nil
	}
	var out *ResultSet
	// LIMIT pushdown: with a single core, no ORDER BY and no DISTINCT,
	// projection is an order-preserving 1:1 row map, so only the first
	// OFFSET+LIMIT input rows can reach the output.
	rowCap := int64(-1)
	if len(s.Cores) == 1 && len(s.OrderBy) == 0 && !s.Cores[0].Distinct && s.Limit >= 0 {
		rowCap = s.Limit
		if s.Offset > 0 {
			rowCap += s.Offset
		}
	}
	for i, core := range s.Cores {
		rs, err := ex.evalCore(core, env, rowCap, live)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = rs
			continue
		}
		if len(rs.Columns) != len(out.Columns) {
			return nil, fmt.Errorf("sql: UNION arms have %d vs %d columns", len(out.Columns), len(rs.Columns))
		}
		out.Rows = append(out.Rows, rs.Rows...)
		if !s.UnionAll[i-1] {
			if out.Rows, err = ex.dedup(out.Rows); err != nil {
				return nil, err
			}
		}
	}
	if len(s.OrderBy) > 0 {
		if err := ex.applyOrderBy(out, s.OrderBy); err != nil {
			return nil, err
		}
	}
	if s.Offset > 0 || s.Limit >= 0 {
		before := len(out.Rows)
		if s.Offset > 0 {
			if s.Offset >= int64(len(out.Rows)) {
				out.Rows = nil
			} else {
				out.Rows = out.Rows[s.Offset:]
			}
		}
		if s.Limit >= 0 && int64(len(out.Rows)) > s.Limit {
			out.Rows = out.Rows[:s.Limit]
		}
		if ex.prof != nil {
			ex.opEnd(time.Now(), OpStat{Kind: "limit", RowsIn: int64(before), RowsOut: int64(len(out.Rows)), Workers: 1})
		}
	}
	return out, nil
}

// dedup is dedupRows recorded as a "dedup" operator when profiling.
func (ex *exec) dedup(rows []Row) ([]Row, error) {
	t0 := ex.opStart()
	out, err := dedupRows(rows, ex.gov)
	if err != nil {
		return nil, err
	}
	ex.opEnd(t0, OpStat{Kind: "dedup", RowsIn: int64(len(rows)), RowsOut: int64(len(out)), Workers: 1})
	return out, nil
}

func (ex *exec) applyOrderBy(rs *ResultSet, items []OrderItem) error {
	t0 := ex.opStart()
	rel := resultToRelation(rs)
	type keyed struct {
		row  Row
		keys []Value
	}
	ks := make([]keyed, len(rs.Rows))
	ctx := newRowCtx(rel, ex.db)
	t := ticker{g: ex.gov, site: CkOrderBy}
	if err := t.flush(); err != nil {
		return err
	}
	for i, row := range rs.Rows {
		if err := t.step(); err != nil {
			return err
		}
		ctx.row = row
		keys := make([]Value, len(items))
		for j, it := range items {
			v, err := evalExpr(it.Expr, ctx)
			if err != nil {
				return err
			}
			keys[j] = v
		}
		ks[i] = keyed{row: row, keys: keys}
	}
	// The comparison sort itself is not interruptible; the checkpoint
	// above bounds the uncancellable stretch to O(n log n) compares over
	// rows that already fit in (and were charged against) the budget.
	if err := t.flush(); err != nil {
		return err
	}
	sort.SliceStable(ks, func(a, b int) bool {
		for j, it := range items {
			ka, kb := ks[a].keys[j], ks[b].keys[j]
			// NULLs sort last (first under DESC).
			if ka.IsNull() || kb.IsNull() {
				if ka.IsNull() && kb.IsNull() {
					continue
				}
				less := kb.IsNull()
				if it.Desc {
					less = !less
				}
				return less
			}
			c, _ := Compare(ka, kb)
			if c == 0 {
				continue
			}
			if it.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for i := range ks {
		rs.Rows[i] = ks[i].row
	}
	ex.opEnd(t0, OpStat{Kind: "order-by", RowsIn: int64(len(rs.Rows)), RowsOut: int64(len(rs.Rows)), Workers: 1})
	return nil
}

// dedupRows removes duplicate rows under key semantics, keeping first
// occurrences in order. Rows are bucketed by hash and candidates are
// verified exactly, so no key strings are built and no separator
// collision can conflate distinct rows.
func dedupRows(rows []Row, g *govern) ([]Row, error) {
	if len(rows) < 2 {
		return rows, nil
	}
	t := ticker{g: g, site: CkDedup}
	if err := t.flush(); err != nil {
		return nil, err
	}
	seen := make(map[uint64][]int32, len(rows))
	out := rows[:0:0]
	for _, r := range rows {
		if err := t.step(); err != nil {
			return nil, err
		}
		h := rowKeyHash(r)
		dup := false
		for _, j := range seen[h] {
			if rowKeyEqual(out[j], r) {
				dup = true
				break
			}
		}
		if !dup {
			seen[h] = append(seen[h], int32(len(out)))
			out = append(out, r)
		}
	}
	return out, nil
}

// evalCore evaluates one SELECT core. rowCap >= 0 bounds the number of
// projected rows (LIMIT pushdown); the caller guarantees projection
// order is final (no ORDER BY, no DISTINCT), so only the first rowCap
// joined rows can appear in the result. live (nil = all) names the
// output columns any later select can observe; projection skips the
// expression items outside it.
func (ex *exec) evalCore(core *SelectCore, env map[string]*relation, rowCap int64, live map[string]bool) (*ResultSet, error) {
	if err := ex.gov.check(CkCore); err != nil {
		return nil, err
	}
	// Split WHERE into conjuncts.
	var conjs []Expr
	if core.Where != nil {
		conjs = conjuncts(core.Where, nil)
	}
	applied := make([]bool, len(conjs))

	// Build each FROM unit, pushing single-alias filters into pure base scans.
	units := make([]*relation, 0, len(core.From))
	for _, fi := range core.From {
		u, err := ex.buildUnit(fi, conjs, applied, env)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}

	cur, err := ex.joinUnits(units, conjs, applied)
	if err != nil {
		return nil, err
	}
	cur, err = ex.materialize(cur)
	if err != nil {
		return nil, err
	}

	// Any unapplied conjunct must now be fully bound.
	var residual []Expr
	for i, c := range conjs {
		if !applied[i] {
			residual = append(residual, c)
			applied[i] = true
		}
	}
	if len(residual) > 0 {
		cur, err = ex.filterRelation(cur, residual)
		if err != nil {
			return nil, err
		}
	}

	if rowCap >= 0 && int64(len(cur.rows)) > rowCap {
		if ex.prof != nil {
			ex.opEnd(time.Now(), OpStat{Kind: "limit", Label: "pushdown", RowsIn: int64(len(cur.rows)), RowsOut: rowCap, Workers: 1})
		}
		trimmed := *cur
		trimmed.rows = cur.rows[:rowCap]
		cur = &trimmed
	}
	return ex.project(core, cur, live)
}

// buildUnit materializes one FROM item including its explicit join chain.
func (ex *exec) buildUnit(fi FromItem, conjs []Expr, applied []bool, env map[string]*relation) (*relation, error) {
	pushable := len(fi.Joins) == 0
	left, err := ex.buildPrimary(fi, conjs, applied, env, pushable)
	if err != nil {
		return nil, err
	}
	for _, jc := range fi.Joins {
		right, err := ex.buildPrimary(jc.Right, nil, nil, env, false)
		if err != nil {
			return nil, err
		}
		left, err = ex.joinOn(left, right, jc.On, jc.Left)
		if err != nil {
			return nil, err
		}
	}
	return left, nil
}

// buildPrimary resolves a table name, CTE, or derived table. When push
// is true and the item is a base table, single-alias equality filters
// from conjs are pushed into the scan (index-accelerated) and marked
// applied.
func (ex *exec) buildPrimary(fi FromItem, conjs []Expr, applied []bool, env map[string]*relation, push bool) (*relation, error) {
	alias := strings.ToLower(fi.Alias)
	if fi.Sub != nil {
		rs, err := ex.evalSelect(fi.Sub, env)
		if err != nil {
			return nil, err
		}
		return aliased(resultToRelation(rs), alias), nil
	}
	if cte, ok := env[strings.ToLower(fi.Table)]; ok {
		r := aliased(cte, alias)
		if push {
			return ex.pushFilters(r, alias, conjs, applied)
		}
		return r, nil
	}
	t := ex.db.Table(fi.Table)
	if t == nil {
		return nil, fmt.Errorf("sql: unknown table %q", fi.Table)
	}
	cols := make([]string, len(t.Schema))
	for i, c := range t.Schema {
		cols[i] = alias + "." + strings.ToLower(c.Name)
	}
	r := newRelation(cols)
	r.aliases[alias] = true
	if push {
		return ex.scanWithFilters(t, r, alias, conjs, applied)
	}
	r.base = t
	return r, nil
}

// scanWithFilters scans a base table applying this alias's conjuncts,
// using a hash index for the first "col = constant" conjunct if any.
func (ex *exec) scanWithFilters(t *Table, shape *relation, alias string, conjs []Expr, applied []bool) (*relation, error) {
	var mine []Expr
	var mineIdx []int
	for i, c := range conjs {
		if applied[i] {
			continue
		}
		set := map[string]bool{}
		exprAliases(c, set)
		ok := len(set) == 1 && set[alias]
		if len(set) == 0 {
			// Unqualified references: claim the conjunct when every
			// bare column resolves in this table's schema.
			bare := bareCols(c, nil)
			ok = len(bare) > 0
			for _, col := range bare {
				if t.ColumnIndex(col) < 0 {
					ok = false
					break
				}
			}
		}
		if ok {
			mine = append(mine, c)
			mineIdx = append(mineIdx, i)
		}
	}
	// Look for an index-usable equality.
	indexCol, indexVal := "", Null
	indexConj := -1
	for k, c := range mine {
		b, ok := c.(*BinOp)
		if !ok || b.Op != "=" {
			continue
		}
		col, lit, ok := constEquality(b, alias, ex.db)
		if !ok {
			continue
		}
		if t.HasIndex(col) {
			indexCol, indexVal, indexConj = col, lit, k
			break
		}
	}
	var rest []Expr
	for k := range mine {
		if k != indexConj {
			rest = append(rest, mine[k])
		}
	}
	out := newRelation(shape.cols)
	out.aliases[alias] = true
	if indexConj >= 0 {
		t0 := ex.opStart()
		pred := ex.db.compilePred(rest, out)
		ids, _ := t.lookup(indexCol, indexVal)
		rd := t.reader()
		arena := rowArena{gov: ex.gov}
		tk := ticker{g: ex.gov, site: CkFilter}
		if err := tk.flush(); err != nil {
			return nil, err
		}
		for _, id := range ids {
			row := rd.rowAt(int(id))
			ok, err := pred(row)
			if err != nil {
				return nil, err
			}
			if ok {
				// Reads land in the reader's scratch buffer; copy
				// survivors into the arena.
				out.rows = append(out.rows, arena.clone(row))
				if err := tk.emit(); err != nil {
					return nil, err
				}
			} else if err := tk.step(); err != nil {
				return nil, err
			}
		}
		if err := tk.flush(); err != nil {
			return nil, err
		}
		ex.opEnd(t0, OpStat{Kind: "index-scan", Label: t.Name + "." + indexCol, RowsIn: int64(len(ids)), RowsOut: int64(len(out.rows)), Workers: 1})
	} else {
		// Defer the filters: a later index nested-loop join can apply
		// them per probed row, avoiding a filtered copy of the table —
		// and the whole scan stays unmaterialized until the vectorized
		// path runs it.
		out.base = t
		out.pending = rest
	}
	for _, i := range mineIdx {
		applied[i] = true
	}
	return out, nil
}

// bareCols collects unqualified column names referenced by e.
func bareCols(e Expr, out []string) []string {
	switch x := e.(type) {
	case *ColRef:
		if x.Alias == "" {
			out = append(out, x.Column)
		}
	case *BinOp:
		out = bareCols(x.L, out)
		out = bareCols(x.R, out)
	case *UnOp:
		out = bareCols(x.X, out)
	case *IsNullExpr:
		out = bareCols(x.X, out)
	case *InExpr:
		out = bareCols(x.X, out)
		for _, a := range x.List {
			out = bareCols(a, out)
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			out = bareCols(w.Cond, out)
			out = bareCols(w.Result, out)
		}
		if x.Else != nil {
			out = bareCols(x.Else, out)
		}
	case *FuncCall:
		for _, a := range x.Args {
			out = bareCols(a, out)
		}
	}
	return out
}

// constEquality recognizes "alias.col = <constant expr>" (either side,
// the column possibly unqualified) and returns the column and value.
func constEquality(b *BinOp, alias string, db *DB) (string, Value, bool) {
	try := func(l, r Expr) (string, Value, bool) {
		cr, ok := l.(*ColRef)
		if !ok || (cr.Alias != "" && !strings.EqualFold(cr.Alias, alias)) {
			return "", Null, false
		}
		set := map[string]bool{}
		exprAliases(r, set)
		if len(set) != 0 {
			return "", Null, false
		}
		v, err := evalExpr(r, &rowCtx{db: db})
		if err != nil {
			return "", Null, false
		}
		return cr.Column, v, true
	}
	if col, v, ok := try(b.L, b.R); ok {
		return col, v, true
	}
	return try(b.R, b.L)
}

// pushFilters applies this alias's single-alias conjuncts to an already
// materialized relation (CTE reference).
func (ex *exec) pushFilters(r *relation, alias string, conjs []Expr, applied []bool) (*relation, error) {
	var mine []Expr
	for i, c := range conjs {
		if applied[i] {
			continue
		}
		set := map[string]bool{}
		exprAliases(c, set)
		if len(set) == 1 && set[alias] {
			mine = append(mine, c)
			applied[i] = true
		}
	}
	if len(mine) == 0 {
		return r, nil
	}
	return ex.filterRelation(r, mine)
}

func (ex *exec) filterRelation(r *relation, conds []Expr) (*relation, error) {
	if r.base != nil {
		// Fold the conjuncts into the scan's pending set and run the
		// vectorized scan once instead of materializing first.
		s := *r
		s.pending = append(append([]Expr(nil), r.pending...), conds...)
		return ex.vecScan(&s)
	}
	t0 := ex.opStart()
	out := newRelation(r.cols)
	for a := range r.aliases {
		out.aliases[a] = true
	}
	pred := ex.db.compilePred(conds, r)
	w := planWorkers(len(r.rows))
	parts := make([][]Row, w)
	err := parallelChunks(len(r.rows), w, func(chunk, lo, hi int) error {
		tk := ticker{g: ex.gov, site: CkFilter}
		if err := tk.flush(); err != nil {
			return err
		}
		var local []Row
		for _, row := range r.rows[lo:hi] {
			keep, err := pred(row)
			if err != nil {
				return err
			}
			if keep {
				local = append(local, row)
				err = tk.emit()
			} else {
				err = tk.step()
			}
			if err != nil {
				return err
			}
		}
		parts[chunk] = local
		return tk.flush()
	})
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		out.rows = append(out.rows, p...)
	}
	ex.opEnd(t0, OpStat{Kind: "filter", RowsIn: int64(len(r.rows)), RowsOut: int64(len(out.rows)), Workers: w})
	return out, nil
}

// joinUnits combines the comma-separated FROM units using the WHERE
// conjuncts: greedy ordering, hash joins on equality predicates,
// cross products as a last resort.
func (ex *exec) joinUnits(units []*relation, conjs []Expr, applied []bool) (*relation, error) {
	if len(units) == 1 {
		return units[0], nil
	}
	used := make([]bool, len(units))
	// Start from the smallest unit.
	start := 0
	for i := 1; i < len(units); i++ {
		if units[i].rowCount() < units[start].rowCount() {
			start = i
		}
	}
	cur := units[start]
	used[start] = true
	for joined := 1; joined < len(units); joined++ {
		best, bestEq := -1, 0
		for i, u := range units {
			if used[i] {
				continue
			}
			eq := countEqLinks(cur, u, conjs, applied)
			switch {
			case best < 0,
				eq > bestEq,
				eq == bestEq && u.rowCount() < units[best].rowCount():
				best, bestEq = i, eq
			}
		}
		next := units[best]
		used[best] = true
		var err error
		cur, err = ex.joinPair(cur, next, conjs, applied)
		if err != nil {
			return nil, err
		}
		// Apply any conjunct now fully bound.
		var ready []Expr
		for i, c := range conjs {
			if applied[i] {
				continue
			}
			if boundIn(c, cur) {
				ready = append(ready, c)
				applied[i] = true
			}
		}
		if len(ready) > 0 {
			cur, err = ex.filterRelation(cur, ready)
			if err != nil {
				return nil, err
			}
		}
	}
	return cur, nil
}

func boundIn(c Expr, r *relation) bool {
	set := map[string]bool{}
	exprAliases(c, set)
	for a := range set {
		if !r.aliases[a] {
			return false
		}
	}
	return true
}

// eqLink describes an equality conjunct joining two relations.
type eqLink struct {
	conj int
	li   int // column position in left
	ri   int // column position in right
}

func eqLinks(l, r *relation, conjs []Expr, applied []bool) []eqLink {
	var out []eqLink
	for i, c := range conjs {
		if applied != nil && applied[i] {
			continue
		}
		b, ok := c.(*BinOp)
		if !ok || b.Op != "=" {
			continue
		}
		lc, lok := b.L.(*ColRef)
		rc, rok := b.R.(*ColRef)
		if !lok || !rok {
			continue
		}
		if li := l.colIndex(lc.Alias, lc.Column); li >= 0 {
			if ri := r.colIndex(rc.Alias, rc.Column); ri >= 0 {
				out = append(out, eqLink{conj: i, li: li, ri: ri})
				continue
			}
		}
		if li := l.colIndex(rc.Alias, rc.Column); li >= 0 {
			if ri := r.colIndex(lc.Alias, lc.Column); ri >= 0 {
				out = append(out, eqLink{conj: i, li: li, ri: ri})
			}
		}
	}
	return out
}

func countEqLinks(l, r *relation, conjs []Expr, applied []bool) int {
	return len(eqLinks(l, r, conjs, applied))
}

// materialize runs a base-table scan through the vectorized path
// (zone-map pruning, selection vectors), applying its pending filters
// and detaching the relation from the table. Any other relation is
// already materialized.
func (ex *exec) materialize(r *relation) (*relation, error) {
	if r.base != nil {
		return ex.vecScan(r)
	}
	return r, nil
}

// indexLink finds a join link whose probe side is an indexed column of
// a base-scan relation, returning the link index and column name.
func indexLink(r *relation, links []eqLink, right bool) (int, string) {
	if r.base == nil {
		return -1, ""
	}
	for i, lk := range links {
		pos := lk.ri
		if !right {
			pos = lk.li
		}
		col := r.cols[pos]
		if j := strings.LastIndexByte(col, '.'); j >= 0 {
			col = col[j+1:]
		}
		if r.base.HasIndex(col) {
			return i, col
		}
	}
	return -1, ""
}

// joinPair joins cur with next using the available equality conjuncts
// (hash join) or a cross product when none apply.
func (ex *exec) joinPair(cur, next *relation, conjs []Expr, applied []bool) (*relation, error) {
	links := eqLinks(cur, next, conjs, applied)
	out := combineShape(cur, next)
	if len(links) == 0 {
		var err error
		if cur, err = ex.materialize(cur); err != nil {
			return nil, err
		}
		if next, err = ex.materialize(next); err != nil {
			return nil, err
		}
		t0 := ex.opStart()
		tk := ticker{g: ex.gov, site: CkCross}
		if err := tk.flush(); err != nil {
			return nil, err
		}
		arena := rowArena{gov: ex.gov}
		for _, lr := range cur.rows {
			for _, rr := range next.rows {
				out.rows = append(out.rows, arena.combine(lr, rr))
				if err := tk.emit(); err != nil {
					return nil, err
				}
			}
		}
		if err := tk.flush(); err != nil {
			return nil, err
		}
		ex.opEnd(t0, OpStat{Kind: "cross-join", RowsIn: int64(len(cur.rows)), BuildRows: int64(len(next.rows)), RowsOut: int64(len(out.rows)), Workers: 1})
		return out, nil
	}
	for _, lk := range links {
		applied[lk.conj] = true
	}
	// Index nested-loop when one side is an indexed base table and the
	// other side is smaller: probe the index per row instead of hashing
	// the whole table. The side sizing compares post-filter
	// cardinalities: the probing side is materialized before the
	// comparison (its pending filters would otherwise overstate it,
	// and it must be materialized to probe anyway); the indexed side's
	// raw row count is an upper bound, since materializing it would
	// destroy the very index access under consideration — its pending
	// filters are instead evaluated per probed row.
	var mcur, mnext *relation
	var err error
	if li, col := indexLink(next, links, true); li >= 0 {
		if mcur, err = ex.materialize(cur); err != nil {
			return nil, err
		}
		if len(mcur.rows) < next.rowCount() {
			if err := ex.indexProbe(out, mcur, next, links, li, col, true); err != nil {
				return nil, err
			}
			return out, nil
		}
	}
	if li, col := indexLink(cur, links, false); li >= 0 {
		if mnext, err = ex.materialize(next); err != nil {
			return nil, err
		}
		if len(mnext.rows) < cur.rowCount() {
			if err := ex.indexProbe(out, mnext, cur, links, li, col, false); err != nil {
				return nil, err
			}
			return out, nil
		}
	}
	// Hash join: build on next, probe cur.
	if mcur == nil {
		if mcur, err = ex.materialize(cur); err != nil {
			return nil, err
		}
	}
	if mnext == nil {
		if mnext, err = ex.materialize(next); err != nil {
			return nil, err
		}
	}
	if err := ex.hashJoinInto(out, mcur, mnext, links); err != nil {
		return nil, err
	}
	return out, nil
}

// indexProbe joins by probing indexed's base-table hash index with
// every probe row, verifying all links and indexed's pending filters
// per candidate. indexedIsRight states whether indexed's columns
// follow probe's in out. Probe rows are partitioned across workers;
// per-worker outputs are concatenated in input order, so the result
// is deterministic and identical to the sequential loop.
func (ex *exec) indexProbe(out *relation, probe, indexed *relation, links []eqLink, li int, col string, indexedIsRight bool) error {
	t0 := ex.opStart()
	idx := indexed.base.indexFor(col)
	if idx == nil {
		return fmt.Errorf("sql: internal: index on %q vanished", col)
	}
	keyPos := links[li].li
	if !indexedIsRight {
		keyPos = links[li].ri
	}
	pendOK := ex.db.compilePred(indexed.pending, indexed)
	w := planWorkers(len(probe.rows))
	parts := make([][]Row, w)
	err := parallelChunks(len(probe.rows), w, func(chunk, lo, hi int) error {
		tk := ticker{g: ex.gov, site: CkIndexProbe}
		if err := tk.flush(); err != nil {
			return err
		}
		var local []Row
		arena := rowArena{gov: ex.gov}
		// Each worker owns its reader: columnar reads share a per-reader
		// scratch row, consumed before the next rowAt (combine copies).
		rd := indexed.base.reader()
		for _, pr := range probe.rows[lo:hi] {
			if err := tk.step(); err != nil {
				return err
			}
			v := pr[keyPos]
			if v.IsNull() {
				continue
			}
		cand:
			for _, id := range idx.lookupVal(v) {
				if err := tk.step(); err != nil {
					return err
				}
				ir := rd.rowAt(int(id))
				for _, lk := range links {
					lv, rv := pr[lk.li], ir[lk.ri]
					if !indexedIsRight {
						lv, rv = ir[lk.li], pr[lk.ri]
					}
					if !Equal(lv, rv) {
						continue cand
					}
				}
				ok, err := pendOK(ir)
				if err != nil {
					return err
				}
				if !ok {
					continue cand
				}
				if indexedIsRight {
					local = append(local, arena.combine(pr, ir))
				} else {
					local = append(local, arena.combine(ir, pr))
				}
				if err := tk.emit(); err != nil {
					return err
				}
			}
		}
		parts[chunk] = local
		return tk.flush()
	})
	if err != nil {
		return err
	}
	for _, p := range parts {
		out.rows = append(out.rows, p...)
	}
	ex.opEnd(t0, OpStat{Kind: "index-join", Label: indexed.base.Name + "." + col, RowsIn: int64(len(probe.rows)), RowsOut: int64(len(out.rows)), Workers: w})
	return nil
}

// hashJoinInto builds a hash table on next's link columns and probes
// it with cur's rows, appending combined rows to out in probe order.
// A single int-typed link — the common case: every DPH/DS/RPH/RS join
// runs over dictionary ids — uses an exact map[int64] kernel; other
// shapes bucket by FNV-mixed uint64 hashes verified per candidate.
// The probe loop fans out across workers above the row threshold.
func (ex *exec) hashJoinInto(out *relation, cur, next *relation, links []eqLink) error {
	if len(links) == 1 {
		handled, err := ex.intHashJoin(out, cur, next, links[0])
		if err != nil {
			return err
		}
		if handled {
			return nil
		}
	}
	t0 := ex.opStart()
	bt := ticker{g: ex.gov, site: CkHashBuild}
	if err := bt.flush(); err != nil {
		return err
	}
	var built int64
	build := make(map[uint64][]Row, len(next.rows))
	for _, rr := range next.rows {
		if err := bt.step(); err != nil {
			return err
		}
		h, ok := linkKeyHash(rr, links, false)
		if !ok {
			continue
		}
		build[h] = append(build[h], rr)
		built++
		bt.addBytes(hashEntryBytes)
	}
	if err := bt.flush(); err != nil {
		return err
	}
	w := planWorkers(len(cur.rows))
	parts := make([][]Row, w)
	err := parallelChunks(len(cur.rows), w, func(chunk, lo, hi int) error {
		tk := ticker{g: ex.gov, site: CkHashProbe}
		if err := tk.flush(); err != nil {
			return err
		}
		var local []Row
		arena := rowArena{gov: ex.gov}
		for _, lr := range cur.rows[lo:hi] {
			if err := tk.step(); err != nil {
				return err
			}
			h, ok := linkKeyHash(lr, links, true)
			if !ok {
				continue
			}
			for _, rr := range build[h] {
				if linkKeyEqual(lr, rr, links) {
					local = append(local, arena.combine(lr, rr))
					if err := tk.emit(); err != nil {
						return err
					}
				}
			}
		}
		parts[chunk] = local
		return tk.flush()
	})
	if err != nil {
		return err
	}
	for _, p := range parts {
		out.rows = append(out.rows, p...)
	}
	ex.opEnd(t0, OpStat{Kind: "hash-join", Label: "generic", RowsIn: int64(len(cur.rows)), BuildRows: built, RowsOut: int64(len(out.rows)), Workers: w})
	return nil
}

// intHashJoin is the type-specialized single-link kernel: an exact
// map[int64][]Row keyed by dictionary-encoded ids, no hashing of
// formatted strings and no candidate verification. Returns false
// without joining when a build-side key value belongs to a non-int
// class (the caller then falls back to the hashed kernel); probe
// values of other classes can never equal an int key and are skipped.
func (ex *exec) intHashJoin(out *relation, cur, next *relation, link eqLink) (bool, error) {
	t0 := ex.opStart()
	bt := ticker{g: ex.gov, site: CkHashBuild}
	if err := bt.flush(); err != nil {
		return false, err
	}
	var built int64
	build := make(map[int64][]Row, len(next.rows))
	for _, rr := range next.rows {
		if err := bt.step(); err != nil {
			return false, err
		}
		k, st := intLinkKey(rr[link.ri])
		if st < 0 {
			return false, nil
		}
		if st == 0 {
			continue // NULLs never join
		}
		build[k] = append(build[k], rr)
		built++
		bt.addBytes(hashEntryBytes)
	}
	if err := bt.flush(); err != nil {
		return false, err
	}
	w := planWorkers(len(cur.rows))
	parts := make([][]Row, w)
	err := parallelChunks(len(cur.rows), w, func(chunk, lo, hi int) error {
		tk := ticker{g: ex.gov, site: CkHashProbe}
		if err := tk.flush(); err != nil {
			return err
		}
		var local []Row
		arena := rowArena{gov: ex.gov}
		for _, lr := range cur.rows[lo:hi] {
			if err := tk.step(); err != nil {
				return err
			}
			k, st := intLinkKey(lr[link.li])
			if st != 1 {
				continue
			}
			for _, rr := range build[k] {
				local = append(local, arena.combine(lr, rr))
				if err := tk.emit(); err != nil {
					return err
				}
			}
		}
		parts[chunk] = local
		return tk.flush()
	})
	if err != nil {
		return true, err
	}
	for _, p := range parts {
		out.rows = append(out.rows, p...)
	}
	ex.opEnd(t0, OpStat{Kind: "hash-join", Label: "int", RowsIn: int64(len(cur.rows)), BuildRows: built, RowsOut: int64(len(out.rows)), Workers: w})
	return true, nil
}

func combineShape(l, r *relation) *relation {
	cols := make([]string, 0, len(l.cols)+len(r.cols))
	cols = append(cols, l.cols...)
	cols = append(cols, r.cols...)
	out := newRelation(cols)
	for a := range l.aliases {
		out.aliases[a] = true
	}
	for a := range r.aliases {
		out.aliases[a] = true
	}
	return out
}

// rowArena carves output rows out of large value blocks: the join and
// projection kernels emit one row per match, and one allocation per
// row is the dominant cost of wide scans. An arena is single-goroutine
// state — each morsel worker owns its own. Block growth is charged
// against the query's memory budget (gov may be nil in governance-free
// contexts); a trip aborts via mustChargeBytes, unwound to a typed
// error at the worker or ExecContext recovery point.
type rowArena struct {
	buf  []Value
	next int // size of the next block, grown geometrically
	gov  *govern
}

func (a *rowArena) alloc(n int) Row {
	if n > len(a.buf) {
		// Start small (selective joins emit a handful of rows) and
		// double per block so bulk operators converge on large blocks.
		sz := a.next
		if sz < 64 {
			sz = 64
		}
		if sz < n {
			sz = n
		}
		if a.gov != nil {
			a.gov.mustChargeBytes(int64(sz) * valueBytes)
		}
		a.buf = make([]Value, sz)
		if sz < 16384 {
			a.next = sz * 2
		}
	}
	r := a.buf[:n:n]
	a.buf = a.buf[n:]
	return r
}

// combine returns l followed by r in a row out of the arena.
func (a *rowArena) combine(l, r Row) Row {
	out := a.alloc(len(l) + len(r))
	copy(out, l)
	copy(out[len(l):], r)
	return out
}

// clone copies r into the arena.
func (a *rowArena) clone(r Row) Row {
	out := a.alloc(len(r))
	copy(out, r)
	return out
}

// allocRows allocates n zeroed rows (every cell Null) of the given
// width. Arena blocks are freshly made and never recycled, so the
// zero guarantee holds.
func (a *rowArena) allocRows(n, width int) []Row {
	out := make([]Row, n)
	for i := range out {
		out[i] = a.alloc(width)
	}
	return out
}

// joinOn implements explicit [LEFT OUTER] JOIN ... ON.
func (ex *exec) joinOn(left, right *relation, on Expr, outer bool) (*relation, error) {
	var err error
	// The left side is always iterated row-by-row; the right side stays
	// unmaterialized only on the index path below.
	if left, err = ex.materialize(left); err != nil {
		return nil, err
	}
	t0 := ex.opStart()
	out := combineShape(left, right)
	onConjs := conjuncts(on, nil)
	// Equality links usable for hashing.
	var links []eqLink
	var residual []Expr
	for _, c := range onConjs {
		b, ok := c.(*BinOp)
		if ok && b.Op == "=" {
			lc, lok := b.L.(*ColRef)
			rc, rok := b.R.(*ColRef)
			if lok && rok {
				if li := left.colIndex(lc.Alias, lc.Column); li >= 0 {
					if ri := right.colIndex(rc.Alias, rc.Column); ri >= 0 {
						links = append(links, eqLink{li: li, ri: ri})
						continue
					}
				}
				if li := left.colIndex(rc.Alias, rc.Column); li >= 0 {
					if ri := right.colIndex(lc.Alias, lc.Column); ri >= 0 {
						links = append(links, eqLink{li: li, ri: ri})
						continue
					}
				}
			}
		}
		residual = append(residual, c)
	}
	nulls := make(Row, len(right.cols))
	resOK := ex.db.compilePred(residual, out)
	if li, col := indexLink(right, links, true); li >= 0 && len(left.rows) < right.rowCount() {
		idx := right.base.indexFor(col)
		rd := right.base.reader()
		tk := ticker{g: ex.gov, site: CkJoinOn}
		if err := tk.flush(); err != nil {
			return nil, err
		}
		arena := rowArena{gov: ex.gov}
		for _, lr := range left.rows {
			if err := tk.step(); err != nil {
				return nil, err
			}
			matched := false
			v := lr[links[li].li]
			if !v.IsNull() && idx != nil {
			probeOn:
				for _, id := range idx.lookupVal(v) {
					if err := tk.step(); err != nil {
						return nil, err
					}
					rr := rd.rowAt(int(id))
					for _, lk := range links {
						if !Equal(lr[lk.li], rr[lk.ri]) {
							continue probeOn
						}
					}
					row := arena.combine(lr, rr)
					ok, err := resOK(row)
					if err != nil {
						return nil, err
					}
					if ok {
						out.rows = append(out.rows, row)
						matched = true
						if err := tk.emit(); err != nil {
							return nil, err
						}
					}
				}
			}
			if outer && !matched {
				out.rows = append(out.rows, arena.combine(lr, nulls))
				if err := tk.emit(); err != nil {
					return nil, err
				}
			}
		}
		if err := tk.flush(); err != nil {
			return nil, err
		}
		ex.opEnd(t0, OpStat{Kind: "join-on", Label: "index " + right.base.Name + "." + col, RowsIn: int64(len(left.rows)), RowsOut: int64(len(out.rows)), Workers: 1})
		return out, nil
	}
	if right, err = ex.materialize(right); err != nil {
		return nil, err
	}
	if len(links) > 0 {
		bt := ticker{g: ex.gov, site: CkHashBuild}
		if err := bt.flush(); err != nil {
			return nil, err
		}
		var built int64
		build := make(map[uint64][]Row, len(right.rows))
		for _, rr := range right.rows {
			if err := bt.step(); err != nil {
				return nil, err
			}
			h, ok := linkKeyHash(rr, links, false)
			if !ok {
				continue
			}
			build[h] = append(build[h], rr)
			built++
			bt.addBytes(hashEntryBytes)
		}
		if err := bt.flush(); err != nil {
			return nil, err
		}
		w := planWorkers(len(left.rows))
		parts := make([][]Row, w)
		err := parallelChunks(len(left.rows), w, func(chunk, lo, hi int) error {
			tk := ticker{g: ex.gov, site: CkJoinOn}
			if err := tk.flush(); err != nil {
				return err
			}
			var local []Row
			arena := rowArena{gov: ex.gov}
			for _, lr := range left.rows[lo:hi] {
				if err := tk.step(); err != nil {
					return err
				}
				matched := false
				if h, ok := linkKeyHash(lr, links, true); ok {
					for _, rr := range build[h] {
						if !linkKeyEqual(lr, rr, links) {
							continue
						}
						row := arena.combine(lr, rr)
						ok, err := resOK(row)
						if err != nil {
							return err
						}
						if ok {
							local = append(local, row)
							matched = true
							if err := tk.emit(); err != nil {
								return err
							}
						}
					}
				}
				if outer && !matched {
					local = append(local, arena.combine(lr, nulls))
					if err := tk.emit(); err != nil {
						return err
					}
				}
			}
			parts[chunk] = local
			return tk.flush()
		})
		if err != nil {
			return nil, err
		}
		for _, p := range parts {
			out.rows = append(out.rows, p...)
		}
		ex.opEnd(t0, OpStat{Kind: "join-on", Label: "hash", RowsIn: int64(len(left.rows)), BuildRows: built, RowsOut: int64(len(out.rows)), Workers: w})
		return out, nil
	}
	// Nested loop.
	tk := ticker{g: ex.gov, site: CkJoinOn}
	if err := tk.flush(); err != nil {
		return nil, err
	}
	arena := rowArena{gov: ex.gov}
	for _, lr := range left.rows {
		matched := false
		for _, rr := range right.rows {
			if err := tk.step(); err != nil {
				return nil, err
			}
			row := arena.combine(lr, rr)
			ok, err := resOK(row)
			if err != nil {
				return nil, err
			}
			if ok {
				out.rows = append(out.rows, row)
				matched = true
				if err := tk.emit(); err != nil {
					return nil, err
				}
			}
		}
		if outer && !matched {
			out.rows = append(out.rows, arena.combine(lr, nulls))
			if err := tk.emit(); err != nil {
				return nil, err
			}
		}
	}
	if err := tk.flush(); err != nil {
		return nil, err
	}
	ex.opEnd(t0, OpStat{Kind: "join-on", Label: "nested", RowsIn: int64(len(left.rows)), BuildRows: int64(len(right.rows)), RowsOut: int64(len(out.rows)), Workers: 1})
	return out, nil
}

// project evaluates the SELECT list over the joined relation. live
// (nil = all) is the set of output columns any downstream select can
// observe: dead expression items are not evaluated, their slot left
// NULL, which is indistinguishable to consumers of the live columns.
func (ex *exec) project(core *SelectCore, r *relation, live map[string]bool) (*ResultSet, error) {
	var names []string
	var exprs []Expr // nil entry means direct column copy at positions[i]
	var positions []int
	for _, item := range core.Items {
		if item.Star {
			alias := strings.ToLower(item.StarAlias)
			for i, c := range r.cols {
				if alias != "" && !strings.HasPrefix(c, alias+".") {
					continue
				}
				name := c
				if j := strings.LastIndexByte(c, '.'); j >= 0 {
					name = c[j+1:]
				}
				names = append(names, name)
				exprs = append(exprs, nil)
				positions = append(positions, i)
			}
			continue
		}
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(*ColRef); ok {
				name = cr.Column
			} else {
				name = fmt.Sprintf("col%d", len(names)+1)
			}
		}
		names = append(names, strings.ToLower(name))
		if cr, ok := item.Expr.(*ColRef); ok {
			if i := r.colIndex(cr.Alias, cr.Column); i >= 0 {
				exprs = append(exprs, nil)
				positions = append(positions, i)
				continue
			}
		}
		exprs = append(exprs, item.Expr)
		positions = append(positions, -1)
	}
	if live != nil {
		// Dead-column pruning (see deadcols.go). Only expression items
		// are worth skipping — direct copies are a pointer move — and
		// only when no star item shifted the positional names the
		// analysis computed. positions[i] = -2 marks a dead slot: never
		// read from the input row, left NULL in the output.
		star := false
		for _, item := range core.Items {
			if item.Star {
				star = true
			}
		}
		if !star {
			for i := range names {
				if exprs[i] != nil && !live[names[i]] {
					exprs[i] = nil
					positions[i] = -2
				}
			}
		}
	}
	rs := &ResultSet{Columns: names}
	t0 := ex.opStart()
	if n := len(r.rows); n > 0 {
		// Compile the non-trivial projection expressions once; direct
		// column copies stay nil.
		compiled := make([]compiledExpr, len(names))
		identity := len(names) == len(r.cols)
		for i := range names {
			if exprs[i] != nil {
				compiled[i] = ex.db.compileExpr(exprs[i], r)
				identity = false
			} else if positions[i] != i {
				identity = false
			}
		}
		if identity {
			// Pure column-preserving rename (e.g. the translator's
			// `SELECT A.r0 AS v_x FROM QT2 AS A` CTE hops): reuse the
			// input rows, copying only the row-pointer slice so later
			// in-place reordering (ORDER BY) cannot alias table storage.
			if err := ex.gov.check(CkProject); err != nil {
				return nil, err
			}
			rs.Rows = append([]Row(nil), r.rows...)
			ex.opEnd(t0, OpStat{Kind: "project", Label: "identity", RowsIn: int64(n), RowsOut: int64(len(rs.Rows)), Workers: 1})
		} else {
			// One output row per input row, written in place by index, so
			// the parallel fan-out is deterministic by construction.
			rows := make([]Row, n)
			w := planWorkers(n)
			width := len(names)
			err := parallelChunks(n, w, func(chunk, lo, hi int) error {
				tk := ticker{g: ex.gov, site: CkProject}
				if err := tk.flush(); err != nil {
					return err
				}
				arena := rowArena{gov: ex.gov}
				for ri := lo; ri < hi; ri++ {
					if err := tk.emit(); err != nil {
						return err
					}
					row := r.rows[ri]
					outRow := arena.alloc(width)
					for i := range names {
						if compiled[i] == nil {
							if p := positions[i]; p >= 0 {
								outRow[i] = row[p]
							}
							continue
						}
						v, err := compiled[i](row)
						if err != nil {
							return err
						}
						outRow[i] = v
					}
					rows[ri] = outRow
				}
				return tk.flush()
			})
			if err != nil {
				return nil, err
			}
			rs.Rows = rows
			ex.opEnd(t0, OpStat{Kind: "project", RowsIn: int64(n), RowsOut: int64(len(rs.Rows)), Workers: w})
		}
	}
	if core.Distinct {
		var err error
		if rs.Rows, err = ex.dedup(rs.Rows); err != nil {
			return nil, err
		}
	}
	return rs, nil
}
