// Command odedump inspects an Ode database directory: statistics, the
// type catalog, payload-representation totals (full copies vs deltas),
// secondary indexes, every object's version graph (in the paper's
// notation), configurations, contexts — and optionally a full integrity
// check.
//
// Usage:
//
//	odedump [-check] [-graphs=false] [-max N] <dbdir>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ode"
	"ode/internal/storage"
	"ode/internal/txn"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "odedump: %v\n", err)
		os.Exit(1)
	}
}

// describeLayout classifies dir without opening it, with the same
// detection — and the same ErrMixedLayout/ErrPartialLayout refusals,
// surfaced early and loudly — the open uses. For a database it prints
// the shard metadata and enumerates every shard's data and WAL file with
// sizes.
func describeLayout(w io.Writer, dir string) (string, error) {
	sharded, legacy0, err := txn.DetectLayout(nil, dir)
	if err != nil {
		return "", fmt.Errorf("refusing to dump: %w", err)
	}
	switch {
	case sharded:
		st, err := txn.ReadShardsState(nil, dir)
		if err != nil {
			return "", err
		}
		n := st.Map.N()
		fmt.Fprintf(w, "shard files:  %s (%d logical, %d physical, created %d)\n",
			txn.ShardsFileName, n, st.Phys, st.Created)
		size := func(name string) string {
			fi, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				return "MISSING"
			}
			return fmt.Sprintf("%d bytes", fi.Size())
		}
		for i := 0; i < st.Phys; i++ {
			data, wal := txn.ShardFileNames(legacy0, i)
			fmt.Fprintf(w, "  %s %s, %s %s\n", data, size(data), wal, size(wal))
		}
		fmt.Fprintf(w, "  %s %s\n", txn.CoordWALFileName, size(txn.CoordWALFileName))
		// The persisted routing map: one line per contiguous id range.
		// Undecided flips in the coordinator log may supersede it at
		// open; an epoch above 0 marks a database that has resharded.
		fmt.Fprintf(w, "shard map:    epoch %d, %d ranges\n", st.Map.Epoch(), len(st.Map.Ranges()))
		ranges := st.Map.Ranges()
		for i, r := range ranges {
			hi := "end"
			if i+1 < len(ranges) {
				hi = fmt.Sprintf("%#x", ranges[i+1].Start)
			}
			fmt.Fprintf(w, "  [%#x, %s) -> shard %d\n", r.Start, hi, r.Shard)
		}
		return fmt.Sprintf("sharded (%d)", n), nil
	case legacy0:
		return "pre-shard (one shard, adopted by this open)", nil
	default:
		// The open below creates a fresh database (the historical
		// dump-an-empty-dir behavior).
		return "fresh (created on open)", nil
	}
}

// run parses args and dumps the database to w (separated from main for
// testing).
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("odedump", flag.ContinueOnError)
	checkFlag := fs.Bool("check", false, "run the full structural integrity check")
	graphsFlag := fs.Bool("graphs", true, "render per-object version graphs")
	maxFlag := fs.Int("max", 50, "maximum objects to render (-1 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: odedump [-check] [-graphs] [-max N] <dbdir>")
	}
	dir := fs.Arg(0)

	// Classify the directory before opening: a database gets its files
	// enumerated, and a directory the open would refuse is refused here
	// with the same error.
	layout, err := describeLayout(w, dir)
	if err != nil {
		return err
	}

	db, err := ode.Open(dir, nil)
	if err != nil {
		return err
	}
	defer db.Close()

	st := db.Stats()
	fmt.Fprintf(w, "database:     %s\n", dir)
	fmt.Fprintf(w, "layout:       %s\n", layout)
	fmt.Fprintf(w, "objects:      %d\n", st.Objects)
	fmt.Fprintf(w, "versions:     %d\n", st.Versions)
	fmt.Fprintf(w, "wal bytes:    %d\n", st.WALBytes)
	// Per-shard summaries: durable epoch, WAL size, page census.
	for i, m := range db.Engine().Coordinator().Shards() {
		ss := m.Stats()
		_ = m.Read(func(v *storage.TxView) error {
			census, err := v.Census()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "shard %03d:    epoch %d, wal %d bytes, %d commits recovered\n",
				i, v.Epoch(), ss.WALBytes, ss.RecoveredTxns)
			fmt.Fprintf(w, "  pages:      %d slotted, %d btree, %d overflow, %d free\n",
				census.Slotted, census.BTree, census.Overflow, census.Free)
			fmt.Fprintf(w, "  records:    %d (%d live bytes, %d reusable)\n",
				census.Records, census.SlottedLiveBytes, census.SlottedFreeBytes)
			return nil
		})
	}
	// Live routing state (may be newer than the persisted frame when an
	// undecided flip was recovered from the coordinator log).
	if m := db.Engine().Coordinator().Map(); m.Epoch() > 0 {
		fmt.Fprintf(w, "routing:      epoch %d, %d logical shards, %d ranges\n",
			m.Epoch(), m.N(), len(m.Ranges()))
	}
	// How version payloads are physically stored: a store that has run
	// under the delta tier shows delta/same records and a heap smaller
	// than the logical payload volume.
	if ps, err := db.Engine().PayloadStats(); err == nil {
		fmt.Fprintf(w, "payloads:     %d full, %d delta, %d same-as-parent\n",
			ps.Full, ps.Delta, ps.Same)
		fmt.Fprintf(w, "  heap:       %d bytes (%d full + %d delta), logical %d bytes, max chain depth %d\n",
			ps.HeapBytes(), ps.FullBytes, ps.DeltaBytes, ps.LogicalBytes, ps.MaxDepth)
	}
	fmt.Fprintln(w)

	eng := db.Engine()
	err = db.View(func(tx *ode.Tx) error {
		types, err := eng.Types()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "types:")
		for _, name := range types {
			id, _, err := eng.LookupType(name)
			if err != nil {
				return err
			}
			n, err := tx.ExtentCount(id)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-24s %v  (%d objects)\n", name, id, n)
		}
		fmt.Fprintln(w)

		if idx, err := eng.IndexNames(); err == nil && len(idx) > 0 {
			fmt.Fprintln(w, "indexes:")
			for _, name := range idx {
				n, err := eng.IndexLen(name)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "  %-40s %d entries\n", name, n)
			}
			fmt.Fprintln(w)
		}

		if names, err := tx.Configs(); err == nil && len(names) > 0 {
			fmt.Fprintln(w, "configurations:")
			for _, name := range names {
				bs, _, err := tx.GetConfig(name)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "  %s:\n", name)
				for _, b := range bs {
					binding := "dynamic (latest)"
					if !b.VID.IsNil() {
						binding = fmt.Sprintf("static %v", b.VID)
					}
					fmt.Fprintf(w, "    %-16s %v  %s\n", b.Slot, b.Obj, binding)
				}
			}
			fmt.Fprintln(w)
		}
		if names, err := tx.Contexts(); err == nil && len(names) > 0 {
			fmt.Fprintln(w, "contexts:")
			for _, name := range names {
				m, _, err := tx.GetContext(name)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "  %s: %d pinned\n", name, len(m))
			}
			fmt.Fprintln(w)
		}

		if *graphsFlag {
			fmt.Fprintln(w, "version graphs:")
			rendered := 0
			for _, name := range types {
				id, _, _ := eng.LookupType(name)
				err := tx.Extent(id, func(o ode.OID) (bool, error) {
					if *maxFlag >= 0 && rendered >= *maxFlag {
						return false, nil
					}
					s, err := tx.Render(o)
					if err != nil {
						return false, err
					}
					fmt.Fprintln(w, s)
					rendered++
					return true, nil
				})
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	if *checkFlag {
		fmt.Fprint(w, "integrity check... ")
		if err := db.CheckIntegrity(); err != nil {
			fmt.Fprintf(w, "FAILED\n")
			return err
		}
		fmt.Fprintln(w, "ok")
	}
	return nil
}
