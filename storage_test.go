package db2rdf_test

// End-to-end storage equivalence between encoded chunks (the default:
// publish-time chunk sealing on) and raw chunks
// (rel.SetChunkEncoding(false)), with morsel parallelism forced off
// and on. The benchmark corpus must answer byte-identically under
// both; random queries must also equal the SPARQL oracle
// (oracle_test.go). ci.sh runs this under -race next to the parallel
// on/off gate, which also probes the vectorized scan's chunk
// partitioning and the sealed chunks' packed fast paths for data
// races.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"db2rdf"
	"db2rdf/internal/gen"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
)

func TestStorageEquivalence(t *testing.T) {
	defer rel.SetParallelism(0, 0)

	type tcase struct {
		name     string
		triples  []rdf.Triple
		queries  []gen.Query
		parallel bool // load via the parallel bulk loader
		oracle   bool // answers must also equal the oracle's
	}
	var cases []tcase
	for i, ds := range []*gen.Dataset{gen.Micro(3000), gen.LUBM(1)} {
		// Alternate load paths so both the incremental insert
		// (CellAt/SetCell) and the partitioned bulk append
		// (AppendRows) feed the comparison.
		cases = append(cases, tcase{ds.Name, ds.Triples, ds.Queries, i%2 == 1, false})
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		triples := oracleData(r)
		var queries []gen.Query
		for j := 0; j < 6; j++ {
			queries = append(queries, gen.Query{Name: fmt.Sprintf("q%d_%d", i, j), SPARQL: genOracleQuery(r).render(nil)})
		}
		cases = append(cases, tcase{fmt.Sprintf("random%d", i), triples, queries, i%2 == 0, true})
	}

	for _, c := range cases {
		stores := map[bool]*db2rdf.Store{}
		for _, encoded := range []bool{true, false} {
			// The knob matters only while loads publish, so it is
			// restored before the comparison queries run.
			rel.SetChunkEncoding(encoded)
			s, err := db2rdf.Open(db2rdf.Options{})
			if err == nil && c.parallel {
				err = s.LoadTriplesParallel(c.triples, 4)
			} else if err == nil {
				err = s.LoadTriples(c.triples)
			}
			rel.SetChunkEncoding(true)
			if err != nil {
				t.Fatalf("%s (encoded=%v): load: %v", c.name, encoded, err)
			}
			stores[encoded] = s
		}
		for _, q := range c.queries {
			var want []string
			ordered := false
			if c.oracle {
				var rows [][]string
				rows, ordered = oracleAnswer(t, c.triples, q.SPARQL)
				want = joinRows(rows)
				if !ordered {
					sort.Strings(want)
				}
			}
			for _, workers := range []int{1, 4} {
				rel.SetParallelism(workers, 1)
				answers := map[bool][]string{}
				for encoded, s := range stores {
					res, err := s.Query(q.SPARQL)
					if err != nil {
						t.Fatalf("%s/%s (encoded=%v, workers=%d): %v", c.name, q.Name, encoded, workers, err)
					}
					answers[encoded] = joinRows(renderResults(res))
					if !ordered {
						sort.Strings(answers[encoded])
					}
				}
				rel.SetParallelism(0, 0)
				enc, raw := strings.Join(answers[true], "\n"), strings.Join(answers[false], "\n")
				if enc != raw {
					t.Errorf("%s/%s workers=%d: encoded and raw chunks answer differently:\nencoded:\n%s\nraw:\n%s",
						c.name, q.Name, workers, enc, raw)
				}
				if exp := strings.Join(want, "\n"); c.oracle && enc != exp {
					t.Errorf("%s/%s workers=%d: answer differs from the oracle\nquery: %s\ngot:\n%s\nwant:\n%s",
						c.name, q.Name, workers, q.SPARQL, enc, exp)
				}
			}
		}
	}
}
