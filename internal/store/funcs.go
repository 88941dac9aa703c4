package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"

	"db2rdf/internal/dict"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
)

// RegisterSPARQLFuncs installs the dictionary-decoding scalar functions
// that generated SQL uses to evaluate SPARQL FILTER expressions and
// ORDER BY keys over dictionary-encoded columns:
//
//	dstr(id)      lexical form (IRI string, literal value, blank label)
//	dnum(id)      numeric value of a literal, NULL if non-numeric
//	deq(a, b)     SPARQL = over two terms (NULL on a type error)
//	dcmp(a, b)    SPARQL < ordering: -1/0/1, NULL when incomparable
//	dsort(id)     ORDER BY key: unbound, blank, IRI, numeric, literal
//	dlang(id)     language tag ("" when absent)
//	ddt(id)       datatype IRI ("" when absent)
//	disiri(id), disliteral(id), disblank(id)  type tests
//	regexmatch(s, pattern [, flags])          regex over strings
//
// Functions return NULL on NULL input, mirroring SPARQL error
// propagation.
func (s *Store) RegisterSPARQLFuncs() { RegisterValueFuncs(s.DB, s.Dict) }

// RegisterValueFuncs installs the value functions on an arbitrary
// database/dictionary pair (shared with the baseline stores).
func RegisterValueFuncs(db *rel.DB, d *dict.Dict) {
	decode := func(v rel.Value) (rdf.Term, bool) {
		if v.K != rel.KindInt || dict.IsLid(v.I) {
			return rdf.Term{}, false
		}
		t, err := d.Decode(v.I)
		return t, err == nil
	}
	db.RegisterFunc("dstr", func(args []rel.Value) (rel.Value, error) {
		if len(args) != 1 {
			return rel.Null, fmt.Errorf("dstr: want 1 arg")
		}
		t, ok := decode(args[0])
		if !ok {
			return rel.Null, nil
		}
		return rel.Str(t.Value), nil
	})
	db.RegisterFunc("dnum", func(args []rel.Value) (rel.Value, error) {
		if len(args) != 1 {
			return rel.Null, fmt.Errorf("dnum: want 1 arg")
		}
		if args[0].K == rel.KindInt && !dict.IsLid(args[0].I) {
			t, err := d.Decode(args[0].I)
			if err != nil {
				return rel.Null, nil
			}
			if f, ok := t.Float(); ok {
				return rel.Float(f), nil
			}
			return rel.Null, nil
		}
		// Already numeric (arithmetic on literals).
		if f, ok := args[0].AsFloat(); ok {
			return rel.Float(f), nil
		}
		return rel.Null, nil
	})
	db.RegisterFunc("dsort", func(args []rel.Value) (rel.Value, error) {
		if len(args) != 1 {
			return rel.Null, fmt.Errorf("dsort: want 1 arg")
		}
		t, ok := decode(args[0])
		if !ok {
			return rel.Str(""), nil
		}
		return rel.Str(sortKey(t)), nil
	})
	for name, f := range map[string]func(a, b rdf.Term) rel.Value{"deq": termsEqual, "dcmp": compareTerms} {
		db.RegisterFunc(name, func(args []rel.Value) (rel.Value, error) {
			if len(args) != 2 {
				return rel.Null, fmt.Errorf("%s: want 2 args", name)
			}
			a, aok := decode(args[0])
			b, bok := decode(args[1])
			if !aok || !bok {
				return rel.Null, nil
			}
			return f(a, b), nil
		})
	}
	db.RegisterFunc("dlang", func(args []rel.Value) (rel.Value, error) {
		t, ok := decode(args[0])
		if !ok {
			return rel.Null, nil
		}
		return rel.Str(t.Lang), nil
	})
	db.RegisterFunc("ddt", func(args []rel.Value) (rel.Value, error) {
		t, ok := decode(args[0])
		if !ok {
			return rel.Null, nil
		}
		// SPARQL 1.1 §17.4.2.7: a plain literal's datatype is
		// xsd:string; a language-tagged literal's is rdf:langString.
		dt := t.Datatype
		if t.Kind == rdf.Literal && dt == "" {
			if t.Lang != "" {
				dt = rdf.RDFLangString
			} else {
				dt = rdf.XSDString
			}
		}
		return rel.Str(dt), nil
	})
	typeTest := func(k rdf.TermKind) rel.Func {
		return func(args []rel.Value) (rel.Value, error) {
			t, ok := decode(args[0])
			if !ok {
				return rel.Null, nil
			}
			return rel.Bool(t.Kind == k), nil
		}
	}
	db.RegisterFunc("disiri", typeTest(rdf.IRI))
	db.RegisterFunc("disliteral", typeTest(rdf.Literal))
	db.RegisterFunc("disblank", typeTest(rdf.Blank))
	db.RegisterFunc("regexmatch", regexMatchFunc())
}

// simpleLiteral reports whether t is a literal without language tag
// whose datatype is absent or xsd:string.
func simpleLiteral(t rdf.Term) bool {
	return t.Kind == rdf.Literal && t.Lang == "" && (t.Datatype == "" || t.Datatype == rdf.XSDString)
}

// termsEqual is SPARQL's = : numeric or string equality when both
// terms are numbers or both simple literals, else RDFterm-equal, which
// is a type error (NULL) for two distinct literals. Two literals of one
// other datatype compare by lexical form, exact for canonical values.
func termsEqual(a, b rdf.Term) rel.Value {
	if c, ok := compareTerms(a, b).AsFloat(); ok {
		return rel.Bool(c == 0)
	}
	switch {
	case a == b:
		return rel.Bool(true)
	case a.Kind != rdf.Literal || b.Kind != rdf.Literal:
		return rel.Bool(false)
	}
	return rel.Null
}

// compareTerms is SPARQL's < : -1/0/1 over two numbers, two simple
// literals or two literals of one other datatype (by lexical form),
// and a type error (NULL) for any other pair.
func compareTerms(a, b rdf.Term) rel.Value {
	af, aNum := a.Float()
	bf, bNum := b.Float()
	var c int
	switch {
	case aNum && bNum:
		c = cmp.Compare(af, bf)
	case aNum || bNum || a.Kind != rdf.Literal || b.Kind != rdf.Literal:
		return rel.Null
	case simpleLiteral(a) && simpleLiteral(b),
		a.Lang == "" && b.Lang == "" && a.Datatype == b.Datatype:
		c = strings.Compare(a.Value, b.Value)
	default:
		return rel.Null
	}
	return rel.Int(int64(c))
}

// sortKey renders t as a string whose byte order is the ORDER BY order
// of SPARQL 1.1 §15.1 — blank nodes, then IRIs, then literals — with
// numbers by value (an order-preserving encoding of the float) before
// all other literals, which order by lexical form, then language tag,
// then datatype. The empty key, below every other, stands for unbound.
func sortKey(t rdf.Term) string {
	switch t.Kind {
	case rdf.Blank:
		return "\x01" + t.Value
	case rdf.IRI:
		return "\x02" + t.Value
	}
	if f, ok := t.Float(); ok {
		u := math.Float64bits(f)
		if f < 0 {
			u = ^u
		} else {
			u |= 1 << 63
		}
		return string(binary.BigEndian.AppendUint64([]byte{3}, u))
	}
	return "\x04" + t.Value + "\x00" + t.Lang + "\x00" + t.Datatype
}

// regexMatchFunc compiles patterns once and caches them.
func regexMatchFunc() rel.Func {
	var mu sync.Mutex
	cache := map[string]*regexp.Regexp{}
	return func(args []rel.Value) (rel.Value, error) {
		if len(args) < 2 || len(args) > 3 {
			return rel.Null, fmt.Errorf("regexmatch: want 2 or 3 args")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return rel.Null, nil
		}
		pat := args[1].S
		if len(args) == 3 && !args[2].IsNull() && args[2].S == "i" {
			pat = "(?i)" + pat
		}
		mu.Lock()
		re, ok := cache[pat]
		mu.Unlock()
		if !ok {
			var err error
			re, err = regexp.Compile(pat)
			if err != nil {
				return rel.Null, fmt.Errorf("regexmatch: %w", err)
			}
			mu.Lock()
			cache[pat] = re
			mu.Unlock()
		}
		return rel.Bool(re.MatchString(args[0].S)), nil
	}
}
