package optimizer

import (
	"fmt"
	"sort"
	"strings"

	"db2rdf/internal/sparql"
)

// ExecKind enumerates execution tree node kinds.
type ExecKind uint8

const (
	// ExecLeaf evaluates one triple pattern with one access method.
	ExecLeaf ExecKind = iota
	// ExecAnd joins its children in order (the order is the plan).
	ExecAnd
	// ExecOr unions its children.
	ExecOr
	// ExecOpt left-outer-joins its single child into the surrounding
	// conjunction.
	ExecOpt
)

// ExecNode is a node of the storage-independent execution tree
// produced by the Query Plan Builder (Figure 10).
type ExecNode struct {
	Kind     ExecKind
	Triple   *sparql.TriplePattern // ExecLeaf only
	Method   Method                // ExecLeaf only
	Cost     float64               // ExecLeaf only: the flow's TMC estimate for Triple
	Children []*ExecNode
	// Filters are evaluated once every child of this node is joined.
	Filters []sparql.Expr
	// Ordered marks an ExecAnd whose children must be joined in the
	// given order and kept apart: no star merge may move a triple
	// across an OPTIONAL (see BuildExecTree).
	Ordered bool
}

// Leaves returns the leaf nodes beneath n in plan order.
func (n *ExecNode) Leaves() []*ExecNode {
	if n.Kind == ExecLeaf {
		return []*ExecNode{n}
	}
	var out []*ExecNode
	for _, c := range n.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// Vars returns the set of variables bound beneath n.
func (n *ExecNode) Vars() map[string]bool {
	set := map[string]bool{}
	for _, l := range n.Leaves() {
		for _, v := range l.Triple.Vars() {
			set[v] = true
		}
	}
	return set
}

// String renders the tree compactly, e.g.
// AND[(t4,aco), OR[(t2,aco), (t3,aco)], (t1,acs), (t5,aco), (t6,acs), OPT[(t7,acs)]].
func (n *ExecNode) String() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *ExecNode) render(b *strings.Builder) {
	switch n.Kind {
	case ExecLeaf:
		fmt.Fprintf(b, "(t%d,%s)", n.Triple.ID, n.Method)
	case ExecAnd:
		b.WriteString("AND[")
		n.renderChildren(b)
		b.WriteString("]")
	case ExecOr:
		b.WriteString("OR[")
		n.renderChildren(b)
		b.WriteString("]")
	case ExecOpt:
		b.WriteString("OPT[")
		n.renderChildren(b)
		b.WriteString("]")
	}
	if len(n.Filters) > 0 {
		fmt.Fprintf(b, "{%df}", len(n.Filters))
	}
}

func (n *ExecNode) renderChildren(b *strings.Builder) {
	for i, c := range n.Children {
		if i > 0 {
			b.WriteString(", ")
		}
		c.render(b)
	}
}

// minRank returns the earliest flow rank beneath n.
func (n *ExecNode) minRank(f *Flow) int {
	if n.Kind == ExecLeaf {
		return f.Rank(n.Triple)
	}
	best := int(^uint(0) >> 1)
	for _, c := range n.Children {
		if r := c.minRank(f); r < best {
			best = r
		}
	}
	return best
}

// BuildExecTree implements the ExecTree algorithm with late fusing:
// conjunctive contexts are flattened into units (triples, OR blocks,
// OPTIONAL blocks), units are fused in optimal-flow order, and
// OPTIONAL units are fused after every required unit so that left-join
// semantics are preserved while the flow still dictates order within
// each class. Filters scoped to purely conjunctive levels float up to
// the enclosing conjunctive unit list.
//
// Late fusing and flattening keep SPARQL's semantics only for patterns
// that reorderSafe accepts. Any other pattern keeps its own structure:
// nested groups stay units, units join in document order, and the
// ExecAnd is Ordered.
func BuildExecTree(f *Flow, p *sparql.Pattern) *ExecNode {
	return buildAny(f, p, reorderSafe(p))
}

// reorderSafe reports whether p may be flattened and reordered: every
// variable that an OPTIONAL shares with triple patterns outside it is
// bound by a triple pattern of a required run before it in its group
// (the pattern is well designed, Pérez et al.), and no FILTER of a
// nested group that would be flattened mentions a variable that only
// triple patterns outside that group bind.
func reorderSafe(root *sparql.Pattern) bool {
	total := tripleVarCounts(root)
	safe := true
	var visit func(p *sparql.Pattern, flattened bool)
	visit = func(p *sparql.Pattern, flattened bool) {
		if flattened {
			inside := tripleVarCounts(p)
			for _, f := range p.Filters {
				vars := map[string]bool{}
				sparql.ExprVars(f, vars)
				for v := range vars {
					safe = safe && (inside[v] > 0 || total[v] == 0)
				}
			}
		}
		before := map[string]bool{}
		for _, c := range p.Children {
			switch {
			case c.Kind == sparql.Optional:
				inside := tripleVarCounts(c)
				vars := map[string]bool{}
				c.Walk(func(q *sparql.Pattern) {
					for _, f := range q.Filters {
						sparql.ExprVars(f, vars)
					}
				})
				for v := range inside {
					vars[v] = true
				}
				for v := range vars {
					safe = safe && (total[v] == inside[v] || before[v])
				}
				visit(c.Child(), false)
			case p.Kind == sparql.And && (c.Kind == sparql.Simple || c.Kind == sparql.And):
				visit(c, true)
				for _, t := range c.Triples {
					for _, v := range t.Vars() {
						before[v] = true
					}
				}
			default:
				visit(c, false)
			}
		}
	}
	visit(root, false)
	return safe
}

// tripleVarCounts counts the triple patterns under p that mention
// each variable.
func tripleVarCounts(p *sparql.Pattern) map[string]int {
	out := map[string]int{}
	for _, t := range p.AllTriples() {
		for _, v := range t.Vars() {
			out[v]++
		}
	}
	return out
}

func buildAny(f *Flow, p *sparql.Pattern, safe bool) *ExecNode {
	if p.Kind == sparql.Or {
		or := &ExecNode{Kind: ExecOr, Filters: p.Filters}
		for _, arm := range p.Children {
			or.Children = append(or.Children, buildAny(f, arm, safe))
		}
		return or
	}
	units, filters := conjunctiveUnits(f, p, safe)
	ordered := units
	if safe {
		var required, optional []*ExecNode
		for _, u := range units {
			if u.Kind == ExecOpt {
				optional = append(optional, u)
			} else {
				required = append(required, u)
			}
		}
		sort.SliceStable(required, func(i, j int) bool { return required[i].minRank(f) < required[j].minRank(f) })
		sort.SliceStable(optional, func(i, j int) bool { return optional[i].minRank(f) < optional[j].minRank(f) })
		ordered = append(required, optional...)
	}
	if len(ordered) == 1 && len(filters) == 0 {
		return ordered[0]
	}
	if len(ordered) == 1 {
		// Attach the filters to the single unit.
		u := ordered[0]
		u.Filters = append(u.Filters, filters...)
		return u
	}
	return &ExecNode{Kind: ExecAnd, Children: ordered, Filters: filters, Ordered: !safe}
}

// conjunctiveUnits flattens nested pure-AND structure (AND is
// associative, §3.1.2) into a flat unit list plus the filters declared
// at those levels. Unless safe, only runs of bare triple patterns
// flatten; other nested groups stay units of their own.
func conjunctiveUnits(f *Flow, p *sparql.Pattern, safe bool) ([]*ExecNode, []sparql.Expr) {
	var units []*ExecNode
	filters := append([]sparql.Expr(nil), p.Filters...)
	for _, t := range p.Triples {
		units = append(units, &ExecNode{Kind: ExecLeaf, Triple: t, Method: f.MethodFor(t), Cost: f.CostFor(t)})
	}
	switch p.Kind {
	case sparql.Simple:
		// triples only, handled above
	case sparql.And:
		for _, c := range p.Children {
			switch {
			case c.Kind == sparql.Simple && len(c.Filters) == 0, safe && c.Kind == sparql.And, safe && c.Kind == sparql.Simple:
				u, fs := conjunctiveUnits(f, c, safe)
				units = append(units, u...)
				filters = append(filters, fs...)
			case c.Kind == sparql.Optional:
				units = append(units, &ExecNode{Kind: ExecOpt, Children: []*ExecNode{buildAny(f, c.Child(), safe)}, Filters: c.Filters})
			default:
				units = append(units, buildAny(f, c, safe))
			}
		}
	case sparql.Optional:
		// An OPTIONAL with no sibling context: treat its child as the
		// conjunctive content wrapped in an OPT unit.
		units = append(units, &ExecNode{Kind: ExecOpt, Children: []*ExecNode{buildAny(f, p.Child(), safe)}})
	}
	return units, filters
}

// Optimize runs the full pipeline: data flow graph, greedy optimal
// flow tree, execution tree.
func Optimize(q *sparql.Query, stats Stats) (*ExecNode, *Flow, error) {
	g := BuildDataFlow(q, stats)
	flow, err := g.OptimalFlowTree()
	if err != nil {
		return nil, nil, err
	}
	return BuildExecTree(flow, q.Where), flow, nil
}

// OptimizeNaive builds the execution tree from the document-order
// naive flow (the no-hybrid-optimizer baseline).
func OptimizeNaive(q *sparql.Query, stats Stats) (*ExecNode, *Flow) {
	flow := NaiveFlow(q, stats)
	return BuildExecTree(flow, q.Where), flow
}
