// Command odeshell is a tiny interactive shell over an Ode database for
// exploring the versioning primitives by hand.
//
// Usage: odeshell <dbdir>
//
// Commands:
//
//	types                         list registered types
//	new <type> <text>             pnew: create an object (registers type)
//	show <oid>                    render the version graph
//	read <oid> [vid]              deref generic (latest) or specific
//	set <oid> <vid> <text>        update a version in place
//	nv <oid> [vid]                newversion from latest or from vid
//	del <oid> [vid]               pdelete object or one version
//	hist <oid> <vid>              derivation history
//	leaves <oid>                  alternative tips
//	asof <oid> <stamp>            historical lookup
//	ls <type>                     extent listing
//	stats                         database statistics
//	shards                        per-shard breakdown and the shard map
//	reshard <n>                   live split/merge to n logical shards
//	payloads                      payload representation totals (full vs delta)
//	compact                       sweep the delta tier to its compacted fixpoint
//	check                         integrity check
//	quit
//
// The shell opens with the delta tier enabled. Inspecting a store never
// rewrites payloads, since the tier demotes only on the writes that make
// a version cold, and the explicit compact command does exactly one
// sweep when asked.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ode"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: odeshell <dbdir>")
		os.Exit(2)
	}
	db, err := ode.Open(os.Args[1], &ode.Options{DeltaTier: true})
	if err != nil {
		fmt.Fprintf(os.Stderr, "odeshell: %v\n", err)
		os.Exit(1)
	}
	defer db.Close()

	sh := &shell{db: db, out: os.Stdout}
	in := bufio.NewScanner(os.Stdin)
	fmt.Println("ode shell — 'help' for commands, 'quit' to exit")
	fmt.Print("> ")
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		if line == "quit" || line == "exit" {
			break
		}
		if line != "" {
			if err := sh.exec(line); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		}
		fmt.Print("> ")
	}
}

type shell struct {
	db  *ode.DB
	out io.Writer
}

func (s *shell) exec(line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		fmt.Fprintln(s.out, "types | new <type> <text> | show <oid> | read <oid> [vid] | set <oid> <vid> <text>")
		fmt.Fprintln(s.out, "nv <oid> [vid] | del <oid> [vid] | hist <oid> <vid> | leaves <oid> | asof <oid> <stamp>")
		fmt.Fprintln(s.out, "ls <type> | stats | shards | reshard <n> | payloads | compact | cache | metrics | check | quit")
		return nil
	case "types":
		return s.db.View(func(tx *ode.Tx) error {
			names, err := s.db.Engine().Types()
			if err != nil {
				return err
			}
			for _, n := range names {
				fmt.Fprintln(s.out, " ", n)
			}
			return nil
		})
	case "new":
		if len(args) < 2 {
			return fmt.Errorf("usage: new <type> <text>")
		}
		tid, err := s.db.Engine().RegisterType(args[0])
		if err != nil {
			return err
		}
		return s.db.Update(func(tx *ode.Tx) error {
			o, v, err := tx.CreateRaw(tid, []byte(strings.Join(args[1:], " ")))
			if err != nil {
				return err
			}
			fmt.Fprintf(s.out, "created %v (root version %v)\n", o, v)
			return nil
		})
	case "show":
		o, err := parseOID(args, 0)
		if err != nil {
			return err
		}
		return s.db.View(func(tx *ode.Tx) error {
			graph, err := tx.Render(o)
			if err != nil {
				return err
			}
			fmt.Fprint(s.out, graph)
			return nil
		})
	case "read":
		o, err := parseOID(args, 0)
		if err != nil {
			return err
		}
		return s.db.View(func(tx *ode.Tx) error {
			if len(args) > 1 {
				v, err := parseVID(args, 1)
				if err != nil {
					return err
				}
				content, err := tx.ReadVersionRaw(o, v)
				if err != nil {
					return err
				}
				fmt.Fprintf(s.out, "%v = %q\n", v, content)
				return nil
			}
			content, v, err := tx.ReadLatestRaw(o)
			if err != nil {
				return err
			}
			fmt.Fprintf(s.out, "latest %v = %q\n", v, content)
			return nil
		})
	case "set":
		o, err := parseOID(args, 0)
		if err != nil {
			return err
		}
		v, err := parseVID(args, 1)
		if err != nil {
			return err
		}
		if len(args) < 3 {
			return fmt.Errorf("usage: set <oid> <vid> <text>")
		}
		return s.db.Update(func(tx *ode.Tx) error {
			return tx.UpdateVersionRaw(o, v, []byte(strings.Join(args[2:], " ")))
		})
	case "nv":
		o, err := parseOID(args, 0)
		if err != nil {
			return err
		}
		return s.db.Update(func(tx *ode.Tx) error {
			var nv ode.VID
			if len(args) > 1 {
				base, err := parseVID(args, 1)
				if err != nil {
					return err
				}
				nv, err = tx.NewVersionFrom(o, base)
				if err != nil {
					return err
				}
			} else {
				var err error
				nv, err = tx.NewVersion(o)
				if err != nil {
					return err
				}
			}
			fmt.Fprintf(s.out, "new version %v\n", nv)
			return nil
		})
	case "del":
		o, err := parseOID(args, 0)
		if err != nil {
			return err
		}
		return s.db.Update(func(tx *ode.Tx) error {
			if len(args) > 1 {
				v, err := parseVID(args, 1)
				if err != nil {
					return err
				}
				return tx.DeleteVersion(o, v)
			}
			return tx.DeleteObject(o)
		})
	case "hist":
		o, err := parseOID(args, 0)
		if err != nil {
			return err
		}
		v, err := parseVID(args, 1)
		if err != nil {
			return err
		}
		return s.db.View(func(tx *ode.Tx) error {
			hist, err := tx.History(o, v)
			if err != nil {
				return err
			}
			strs := make([]string, len(hist))
			for i, h := range hist {
				strs[i] = h.String()
			}
			fmt.Fprintln(s.out, strings.Join(strs, " → "))
			return nil
		})
	case "leaves":
		o, err := parseOID(args, 0)
		if err != nil {
			return err
		}
		return s.db.View(func(tx *ode.Tx) error {
			ls, err := tx.Leaves(o)
			if err != nil {
				return err
			}
			fmt.Fprintln(s.out, ls)
			return nil
		})
	case "asof":
		o, err := parseOID(args, 0)
		if err != nil {
			return err
		}
		if len(args) < 2 {
			return fmt.Errorf("usage: asof <oid> <stamp>")
		}
		n, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return err
		}
		return s.db.View(func(tx *ode.Tx) error {
			v, ok, err := tx.AsOf(o, ode.Stamp(n))
			if err != nil {
				return err
			}
			if !ok {
				fmt.Fprintln(s.out, "no version at that stamp")
				return nil
			}
			fmt.Fprintf(s.out, "as of @%d: %v\n", n, v)
			return nil
		})
	case "ls":
		if len(args) < 1 {
			return fmt.Errorf("usage: ls <type>")
		}
		tid, ok, err := s.db.Engine().LookupType(args[0])
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("unknown type %q", args[0])
		}
		return s.db.View(func(tx *ode.Tx) error {
			return tx.Extent(tid, func(o ode.OID) (bool, error) {
				n, err := tx.VersionCount(o)
				if err != nil {
					return false, err
				}
				fmt.Fprintf(s.out, "  %v (%d versions)\n", o, n)
				return true, nil
			})
		})
	case "stats":
		st := s.db.Stats()
		fmt.Fprintf(s.out, "%+v\n", st)
		return nil
	case "shards":
		c := s.db.Engine().Coordinator()
		m := c.Map()
		fmt.Fprintf(s.out, "%d logical / %d physical shards, map epoch %d\n",
			c.N(), c.NumShards(), m.Epoch())
		per := s.db.Engine().ShardStats()
		for i, sm := range c.Shards() {
			ms := sm.Stats()
			var objs, vers uint64
			if i < len(per) {
				objs, vers = per[i].Objects, per[i].Versions
			}
			fmt.Fprintf(s.out, "  shard %d: %d objects, %d versions, %d commits, %d aborts, %d WAL bytes\n",
				i, objs, vers, ms.Commits, ms.Aborts, ms.WALBytes)
		}
		ranges := m.Ranges()
		fmt.Fprintf(s.out, "map (%d ranges):\n", len(ranges))
		for i, r := range ranges {
			hi := "end"
			if i+1 < len(ranges) {
				hi = fmt.Sprintf("%#x", ranges[i+1].Start)
			}
			fmt.Fprintf(s.out, "  [%#x, %s) -> shard %d\n", r.Start, hi, r.Shard)
		}
		return nil
	case "reshard":
		if len(args) != 1 {
			return fmt.Errorf("usage: reshard <n>")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return fmt.Errorf("bad shard count %q", args[0])
		}
		if err := s.db.Reshard(n); err != nil {
			return err
		}
		rp := s.db.ReshardProgress()
		fmt.Fprintf(s.out, "resharded to %d logical shards: %d chunks, %d objects, %d versions moved\n",
			s.db.Shards(), rp.Chunks, rp.Objects, rp.Versions)
		return nil
	case "payloads":
		ps, err := s.db.Engine().PayloadStats()
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%d full, %d delta, %d same-as-parent\n", ps.Full, ps.Delta, ps.Same)
		fmt.Fprintf(s.out, "heap %d bytes (%d full + %d delta), logical %d bytes, max chain depth %d\n",
			ps.HeapBytes(), ps.FullBytes, ps.DeltaBytes, ps.LogicalBytes, ps.MaxDepth)
		return nil
	case "compact":
		st, err := s.db.Compact()
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "compacted: %d objects examined, %d demoted, %d promoted, %d bytes saved\n",
			st.Objects, st.Demoted, st.Promoted, st.BytesSaved)
		return nil
	case "cache":
		hitRate := func(h, m uint64) float64 {
			if h+m == 0 {
				return 0
			}
			return 100 * float64(h) / float64(h+m)
		}
		if ds, ok := s.db.Engine().DerefCacheStats(); ok {
			fmt.Fprintf(s.out, "derefcache:  %d hits, %d misses (%.1f%% hit rate), %d evictions, %d entries, %d bytes\n",
				ds.Hits, ds.Misses, hitRate(ds.Hits, ds.Misses), ds.Evictions, ds.Entries, ds.Bytes)
			c := s.db.Engine().Coordinator()
			if c.NumShards() > 1 {
				for i := 0; i < c.NumShards(); i++ {
					h, m := s.db.Engine().DerefCacheShardStats(i)
					if h+m > 0 {
						fmt.Fprintf(s.out, "  shard %d: %d hits, %d misses (%.1f%%)\n", i, h, m, hitRate(h, m))
					}
				}
			}
		} else {
			fmt.Fprintln(s.out, "derefcache:  disabled")
		}
		st := s.db.Stats()
		leases, ids := st.AllocLeases, st.AllocIDs
		fmt.Fprintf(s.out, "allocator:   %d leases, %d ids", leases, ids)
		if leases > 0 {
			fmt.Fprintf(s.out, " (%.1f ids/lease)", float64(ids)/float64(leases))
		}
		fmt.Fprintln(s.out)
		return nil
	case "metrics", ".metrics":
		// Prometheus text exposition: counters, gauges and latency
		// histograms (commit, fsync, checkpoint, chain walks).
		return s.db.WriteMetrics(s.out)
	case "check":
		if err := s.db.CheckIntegrity(); err != nil {
			return err
		}
		fmt.Fprintln(s.out, "ok")
		return nil
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

func parseOID(args []string, i int) (ode.OID, error) {
	if len(args) <= i {
		return 0, fmt.Errorf("missing oid argument")
	}
	s := strings.TrimPrefix(args[i], "o")
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad oid %q", args[i])
	}
	return ode.OID(n), nil
}

func parseVID(args []string, i int) (ode.VID, error) {
	if len(args) <= i {
		return 0, fmt.Errorf("missing vid argument")
	}
	s := strings.TrimPrefix(args[i], "v")
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad vid %q", args[i])
	}
	return ode.VID(n), nil
}
