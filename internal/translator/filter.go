package translator

import (
	"fmt"
	"strings"

	"db2rdf/internal/rdf"
	"db2rdf/internal/sparql"
)

// filterSQL translates a SPARQL FILTER expression into a SQL boolean
// expression. varExpr maps bound variables to SQL expressions holding
// their dictionary ids; unbound variables become NULL (SPARQL type
// errors collapse to false at the filter, matching our engine's
// three-valued WHERE).
func (g *Gen) filterSQL(e sparql.Expr, varExpr map[string]string) (string, error) {
	switch x := e.(type) {
	case *sparql.EBin:
		switch x.Op {
		case "&&":
			l, err := g.filterSQL(x.L, varExpr)
			if err != nil {
				return "", err
			}
			r, err := g.filterSQL(x.R, varExpr)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("(%s AND %s)", l, r), nil
		case "||":
			l, err := g.filterSQL(x.L, varExpr)
			if err != nil {
				return "", err
			}
			r, err := g.filterSQL(x.R, varExpr)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("(%s OR %s)", l, r), nil
		case "=", "!=":
			return g.equalitySQL(x, varExpr)
		case "<", "<=", ">", ">=":
			return g.comparisonSQL(x, varExpr)
		}
		return "", fmt.Errorf("translator: unsupported filter operator %q", x.Op)
	case *sparql.EUn:
		if x.Op == "!" {
			inner, err := g.filterSQL(x.X, varExpr)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("NOT (%s)", inner), nil
		}
		return "", fmt.Errorf("translator: unary %q not boolean", x.Op)
	case *sparql.ECall:
		return g.callSQL(x, varExpr)
	case *sparql.EVar:
		// Effective boolean value of a bare variable: bound and not
		// the false literal.
		c, ok := varExpr[x.Name]
		if !ok {
			return "FALSE", nil
		}
		return fmt.Sprintf("(%s IS NOT NULL AND dstr(%s) != 'false')", c, c), nil
	}
	return "", fmt.Errorf("translator: unsupported filter expression %T", e)
}

// equalitySQL handles = and != with four strategies: string
// comparison when a string-returning builtin is involved, numeric
// comparison when arithmetic is, id equality when an operand can never
// be a literal (then SPARQL's = is term identity), and the deq function
// otherwise, which applies SPARQL's value and type-error rules.
func (g *Gen) equalitySQL(x *sparql.EBin, varExpr map[string]string) (string, error) {
	op := x.Op
	if stringish(x.L) || stringish(x.R) {
		l, err := g.strSQL(x.L, varExpr)
		if err != nil {
			return "", err
		}
		r, err := g.strSQL(x.R, varExpr)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s %s %s", l, op, r), nil
	}
	_, litL := x.L.(*sparql.ELit)
	_, litR := x.R.(*sparql.ELit)
	if numericish(x.L) && !litL || numericish(x.R) && !litR { // arithmetic
		l, err := g.numSQL(x.L, varExpr)
		if err != nil {
			return "", err
		}
		r, err := g.numSQL(x.R, varExpr)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s %s %s", l, op, r), nil
	}
	l, err := g.idSQL(x.L, varExpr)
	if err != nil {
		return "", err
	}
	r, err := g.idSQL(x.R, varExpr)
	if err != nil {
		return "", err
	}
	if g.neverLiteral(x.L) || g.neverLiteral(x.R) {
		return fmt.Sprintf("%s %s %s", l, op, r), nil
	}
	if op == "!=" {
		return fmt.Sprintf("NOT deq(%s, %s)", l, r), nil
	}
	return fmt.Sprintf("deq(%s, %s)", l, r), nil
}

// neverLiteral reports whether an operand cannot hold a literal: a
// constant IRI or blank node, or a variable that every triple pattern
// of the query binds in subject or predicate position.
func (g *Gen) neverLiteral(e sparql.Expr) bool {
	switch x := e.(type) {
	case *sparql.ELit:
		return x.Term.Kind != rdf.Literal
	case *sparql.EVar:
		return g.nonLiteral[x.Name]
	}
	return false
}

// comparisonSQL handles the ordering operators: numeric mode when
// arithmetic or numeric literals are involved, term ordering (dcmp)
// otherwise.
func (g *Gen) comparisonSQL(x *sparql.EBin, varExpr map[string]string) (string, error) {
	if stringish(x.L) || stringish(x.R) {
		l, err := g.strSQL(x.L, varExpr)
		if err != nil {
			return "", err
		}
		r, err := g.strSQL(x.R, varExpr)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s %s %s", l, x.Op, r), nil
	}
	if numericish(x.L) || numericish(x.R) {
		l, err := g.numSQL(x.L, varExpr)
		if err != nil {
			return "", err
		}
		r, err := g.numSQL(x.R, varExpr)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s %s %s", l, x.Op, r), nil
	}
	l, err := g.idSQL(x.L, varExpr)
	if err != nil {
		return "", err
	}
	r, err := g.idSQL(x.R, varExpr)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("dcmp(%s, %s) %s 0", l, r, x.Op), nil
}

func (g *Gen) callSQL(x *sparql.ECall, varExpr map[string]string) (string, error) {
	switch x.Name {
	case "bound":
		if len(x.Args) != 1 {
			return "", fmt.Errorf("translator: bound() wants 1 argument")
		}
		v, ok := x.Args[0].(*sparql.EVar)
		if !ok {
			return "", fmt.Errorf("translator: bound() wants a variable")
		}
		c, bound := varExpr[v.Name]
		if !bound {
			return "FALSE", nil
		}
		return fmt.Sprintf("%s IS NOT NULL", c), nil
	case "regex":
		if len(x.Args) < 2 || len(x.Args) > 3 {
			return "", fmt.Errorf("translator: regex() wants 2 or 3 arguments")
		}
		s, err := g.strSQL(x.Args[0], varExpr)
		if err != nil {
			return "", err
		}
		pat, err := g.strSQL(x.Args[1], varExpr)
		if err != nil {
			return "", err
		}
		if len(x.Args) == 3 {
			flags, err := g.strSQL(x.Args[2], varExpr)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("regexmatch(%s, %s, %s)", s, pat, flags), nil
		}
		return fmt.Sprintf("regexmatch(%s, %s)", s, pat), nil
	case "isiri", "isuri", "isliteral", "isblank":
		if len(x.Args) != 1 {
			return "", fmt.Errorf("translator: %s() wants 1 argument", x.Name)
		}
		id, err := g.idSQL(x.Args[0], varExpr)
		if err != nil {
			return "", err
		}
		fn := map[string]string{"isiri": "disiri", "isuri": "disiri", "isliteral": "disliteral", "isblank": "disblank"}[x.Name]
		return fmt.Sprintf("%s(%s)", fn, id), nil
	case "sameterm":
		if len(x.Args) != 2 {
			return "", fmt.Errorf("translator: sameterm() wants 2 arguments")
		}
		l, err := g.idSQL(x.Args[0], varExpr)
		if err != nil {
			return "", err
		}
		r, err := g.idSQL(x.Args[1], varExpr)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s = %s", l, r), nil
	case "langmatches":
		if len(x.Args) != 2 {
			return "", fmt.Errorf("translator: langmatches() wants 2 arguments")
		}
		l, err := g.strSQL(x.Args[0], varExpr)
		if err != nil {
			return "", err
		}
		lit, ok := x.Args[1].(*sparql.ELit)
		if !ok {
			return "", fmt.Errorf("translator: langmatches() wants a literal range")
		}
		if lit.Term.Value == "*" {
			return fmt.Sprintf("%s != ''", l), nil
		}
		return fmt.Sprintf("lower(%s) = '%s'", l, escapeSQL(strings.ToLower(lit.Term.Value))), nil
	}
	return "", fmt.Errorf("translator: unsupported builtin %q", x.Name)
}

// idSQL renders the dictionary id of a term-valued operand.
func (g *Gen) idSQL(e sparql.Expr, varExpr map[string]string) (string, error) {
	switch x := e.(type) {
	case *sparql.EVar:
		c, ok := varExpr[x.Name]
		if !ok {
			return "NULL", nil
		}
		return c, nil
	case *sparql.ELit:
		// Encode (not Lookup): dcmp/disiri must be able to decode the
		// constant even when it does not occur in the data.
		return fmt.Sprintf("%d", g.backend.EncodeID(x.Term)), nil
	}
	return "", fmt.Errorf("translator: operand %T is not term-valued", e)
}

// strSQL renders the string value of an operand.
func (g *Gen) strSQL(e sparql.Expr, varExpr map[string]string) (string, error) {
	switch x := e.(type) {
	case *sparql.EVar:
		c, ok := varExpr[x.Name]
		if !ok {
			return "NULL", nil
		}
		return fmt.Sprintf("dstr(%s)", c), nil
	case *sparql.ELit:
		return "'" + escapeSQL(x.Term.Value) + "'", nil
	case *sparql.ECall:
		switch x.Name {
		case "str":
			id, err := g.idSQL(x.Args[0], varExpr)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("dstr(%s)", id), nil
		case "lang":
			id, err := g.idSQL(x.Args[0], varExpr)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("dlang(%s)", id), nil
		case "datatype":
			id, err := g.idSQL(x.Args[0], varExpr)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("ddt(%s)", id), nil
		}
	}
	return "", fmt.Errorf("translator: operand %T is not string-valued", e)
}

// numSQL renders the numeric value of an operand, including filter
// arithmetic.
func (g *Gen) numSQL(e sparql.Expr, varExpr map[string]string) (string, error) {
	switch x := e.(type) {
	case *sparql.EVar:
		c, ok := varExpr[x.Name]
		if !ok {
			return "NULL", nil
		}
		return fmt.Sprintf("dnum(%s)", c), nil
	case *sparql.ELit:
		if _, ok := x.Term.Float(); ok {
			return x.Term.Value, nil
		}
		return "", fmt.Errorf("translator: literal %s is not numeric", x.Term)
	case *sparql.EBin:
		switch x.Op {
		case "+", "-", "*", "/":
			l, err := g.numSQL(x.L, varExpr)
			if err != nil {
				return "", err
			}
			r, err := g.numSQL(x.R, varExpr)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("(%s %s %s)", l, x.Op, r), nil
		}
	case *sparql.EUn:
		if x.Op == "-" {
			inner, err := g.numSQL(x.X, varExpr)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("(0 - %s)", inner), nil
		}
	}
	return "", fmt.Errorf("translator: operand %T is not numeric", e)
}

// stringish reports whether the operand forces string-mode comparison.
func stringish(e sparql.Expr) bool {
	c, ok := e.(*sparql.ECall)
	if !ok {
		return false
	}
	switch c.Name {
	case "str", "lang", "datatype":
		return true
	}
	return false
}

// numericish reports whether the operand forces numeric-mode
// comparison: arithmetic, numeric negation, or a numeric literal.
func numericish(e sparql.Expr) bool {
	switch x := e.(type) {
	case *sparql.EBin:
		switch x.Op {
		case "+", "-", "*", "/":
			return true
		}
	case *sparql.EUn:
		return x.Op == "-"
	case *sparql.ELit:
		if x.Term.Kind != rdf.Literal {
			return false
		}
		switch x.Term.Datatype {
		case rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble:
			return true
		}
	}
	return false
}

// escapeSQL doubles single quotes for SQL string literals.
func escapeSQL(s string) string { return strings.ReplaceAll(s, "'", "''") }
