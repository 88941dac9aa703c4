package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"db2rdf"
	"db2rdf/internal/rdf"
)

// setupReps is how many times set-up runs in one run; setup_s is the
// median. Each timed set of stores is closed and deleted again; the
// workload runs on a separate, untimed load (see setup).
const setupReps = 5

// recoveryReps is how many times the closed directories are reopened;
// recovery_s is the median.
const recoveryReps = 9

// stores is one durable store per dataset.
type stores struct {
	dss  []*dataset
	db   []*db2rdf.Store
	dirs []string
	opts db2rdf.Options // DataDir left empty; set per store
}

// setup opens and loads every dataset into fresh durable stores
// setupReps times with LoadParallel and nproc workers, and reports the
// median time of Open plus load as setup_s. Generation and
// serialisation happened before. The traced run splits the same work
// into the N-Triples parse and LoadTriplesParallel.
//
// The stores the workload then runs on are loaded once more, untimed,
// with one worker: a parallel load assigns dictionary ids and lays rows
// out in an order that differs from load to load, and the translator's
// star merges can differ with it, so one query's plan — LQ2 at
// LUBM(100) — changes between runs of the same code (see README.md).
//
// It also reports heap_bytes_per_triple: the live heap the kept stores
// add once the N-Triples inputs are released.
func (r *run) setup(dss []*dataset, snapshotEvery int) (*stores, error) {
	opts := db2rdf.Options{SnapshotEvery: snapshotEvery}
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		// Each timed set-up starts from a collected heap, so the garbage
		// of the previous one is not collected on its clock.
		runtime.GC()
		start := time.Now()
		st, err := r.openAll(dss, opts, fmt.Sprintf("rep%d", rep), r.workers, r.trace)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if err := st.close(); err != nil {
			return nil, err
		}
		for _, d := range st.dirs {
			if err := os.RemoveAll(d); err != nil {
				return nil, err
			}
		}
	}
	r.set("setup_s", median(times), "s")

	inputs := 0
	for _, ds := range dss {
		inputs += cap(ds.nt)
	}
	heapBefore := liveHeap() - uint64(inputs)
	kept, err := r.openAll(dss, opts, "kept", 1, false)
	if err != nil {
		return nil, err
	}
	for _, ds := range dss {
		ds.nt = nil
	}
	heap := float64(liveHeap()) - float64(heapBefore)
	r.set("heap_bytes_per_triple", heap/float64(kept.triples()), "bytes")
	if r.trace {
		var table, dict int64
		for _, s := range kept.db {
			table += s.TableBytes()
			dict += s.DictBytes()
		}
		r.set("store.table_bytes_per_triple", float64(table)/float64(kept.triples()), "bytes")
		r.set("dict.bytes_per_triple", float64(dict)/float64(kept.triples()), "bytes")
	}
	return kept, nil
}

// openAll opens one durable store per dataset under the run directory
// and loads it with the given number of workers, traced or not.
func (r *run) openAll(dss []*dataset, opts db2rdf.Options, tag string, workers int, traced bool) (*stores, error) {
	st := &stores{dss: dss, opts: opts}
	for _, ds := range dss {
		o := opts
		o.DataDir = filepath.Join(r.dir, tag+"-"+ds.name)
		st.dirs = append(st.dirs, o.DataDir)
		s, err := db2rdf.Open(o)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", ds.name, err)
		}
		st.db = append(st.db, s)
		if err := r.load(s, ds, workers, traced); err != nil {
			return nil, fmt.Errorf("load %s: %w", ds.name, err)
		}
	}
	return st, nil
}

// load loads one dataset; traced, it is two spans, the N-Triples parse
// and the store's insert.
func (r *run) load(s *db2rdf.Store, ds *dataset, workers int, traced bool) error {
	if !traced {
		_, err := s.LoadParallel(bytes.NewReader(ds.nt), workers)
		return err
	}
	var ts []rdf.Triple
	err := r.tr.do("rdf.parse", 0, 0, func() error {
		var err error
		ts, err = rdf.NewReader(bytes.NewReader(ds.nt)).ReadAll()
		return err
	})
	if err != nil {
		return err
	}
	return r.tr.do("store.load_insert", 0, 0, func() error {
		return s.LoadTriplesParallel(ts, workers)
	})
}

func (st *stores) triples() int {
	n := 0
	for _, ds := range st.dss {
		n += ds.triples
	}
	return n
}

func (st *stores) close() error {
	for i, s := range st.db {
		if err := s.Close(); err != nil {
			return fmt.Errorf("close %s: %w", st.dss[i].name, err)
		}
	}
	return nil
}

// liveHeap is the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// closeAndRecover closes the stores, measures their directories, and
// reopens them recoveryReps times. The first reopening is checked two
// ways: each store's Export equals the one taken before Close, and its
// content equals the base data plus the net writes (written[i] holds
// the live written lines of dataset i).
func (r *run) closeAndRecover(st *stores, written [][]string, storedTriples int) error {
	before := make([][32]byte, len(st.db))
	for i, s := range st.db {
		var buf bytes.Buffer
		if _, err := s.Export(&buf); err != nil {
			return fmt.Errorf("export %s: %w", st.dss[i].name, err)
		}
		before[i] = sha256.Sum256(buf.Bytes())
	}
	if err := st.close(); err != nil {
		return err
	}
	st.db = nil
	var disk int64
	for _, d := range st.dirs {
		err := filepath.WalkDir(d, func(_ string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			info, err := e.Info()
			if err != nil {
				return err
			}
			disk += info.Size()
			return nil
		})
		if err != nil {
			return err
		}
	}
	r.set("disk_bytes_per_triple", float64(disk)/float64(storedTriples), "bytes")

	var times []float64
	var replayed uint64
	for rep := 0; rep < recoveryReps; rep++ {
		reopened := make([]*db2rdf.Store, len(st.dirs))
		runtime.GC()
		start := time.Now()
		for i, d := range st.dirs {
			o := st.opts
			o.DataDir = d
			s, err := db2rdf.Open(o)
			if err != nil {
				return fmt.Errorf("reopen %s: %w", st.dss[i].name, err)
			}
			reopened[i] = s
		}
		times = append(times, time.Since(start).Seconds())
		r.attempt()
		for i, s := range reopened {
			if rep == 0 {
				replayed += s.Metrics().Snapshot().ReplayedRecords
				r.checkRecovered(st.dss[i], s, before[i], written[i])
			}
			if err := s.Close(); err != nil {
				return fmt.Errorf("close reopened %s: %w", st.dss[i].name, err)
			}
		}
	}
	r.set("recovery_s", median(times), "s")
	if r.trace {
		r.set("store.replayed_records", float64(replayed), "count")
	}
	return nil
}

func (r *run) checkRecovered(ds *dataset, s *db2rdf.Store, before [32]byte, written []string) {
	var buf bytes.Buffer
	if _, err := s.Export(&buf); err != nil {
		r.wrong("%s: export after recovery: %v", ds.name, err)
		return
	}
	if sha256.Sum256(buf.Bytes()) != before {
		r.wrong("%s: export after recovery differs from the export before Close", ds.name)
	}
	want := ds.base
	for _, line := range written {
		want.add(line)
	}
	if got := exportDigest(buf.Bytes()); got != want {
		r.wrong("%s: recovered content has %d triples, base data plus net writes has %d (or their digests differ)", ds.name, got.n, want.n)
	}
}
