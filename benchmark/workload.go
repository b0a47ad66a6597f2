package main

import (
	"fmt"
	"math/rand"
	"time"

	"ode"
)

type opKind uint8

const (
	opDeref   opKind = iota // View{Ptr.Deref}: latest version
	opVDeref                // View{VPtr.Deref}: one pinned older version
	opHistory               // View{VPtr.History} from the tip
	opAsOf                  // View{Ptr.AsOf} a recorded stamp
	opWrite                 // Update{Deref, NewVersion, Set}
	opWrite2                // the same on two objects in one Update
)

func (k opKind) isWrite() bool { return k >= opWrite }

// objects is the number of objects the operation versions.
func (k opKind) objects() int {
	switch k {
	case opWrite:
		return 1
	case opWrite2:
		return 2
	}
	return 0
}

// op is one pre-generated operation. salt feeds whatever else the
// operation draws (which older version, where the edit lands), so the
// engine sees only generated inputs and a restarted closure repeats
// itself exactly.
type op struct {
	kind      opKind
	obj, obj2 uint32
	salt      uint32
}

// workload is one set of inputs. The object counts fix the working set
// against the program's caches and do not change with the run length;
// rate is the throughput of the reference box at the seed commit, so
// rate × seconds operations measure for about that long there while
// every build is handed exactly the same work.
type workload struct {
	name     string
	objects  int     // preloaded objects
	size     int     // payload bytes
	versions int     // preloaded versions per object, a linear chain
	zipf     float64 // key skew s; 0 draws keys uniformly
	rate     int     // operations per second of -seconds
	clients  int
	// mix is the percentage of opDeref, opVDeref, opHistory and opAsOf;
	// the remainder writes.
	mix [4]int
	// pairEvery makes every n-th write version two objects in one
	// Update (a composite and a component); 0 never.
	pairEvery int
	syncDelay time.Duration // modeled flush cost; 0 leaves the device alone
	// recovery adds the crash-and-reopen phase after the measured one.
	recovery bool
	options  ode.Options
}

const shards = 4 // the configuration ROADMAP says collapses

var workloads = []*workload{
	{
		name: "hot-read", objects: 4096, size: 512, versions: 3, zipf: 1.1,
		rate: 400_000, clients: 2, mix: [4]int{100, 0, 0, 0},
		options: ode.Options{Shards: shards, NoSync: true},
	},
	{
		name: "cold-history", objects: 8000, size: 1024, versions: 4,
		rate: 85_000, clients: 2, mix: [4]int{50, 25, 15, 10},
		options: ode.Options{Shards: shards, NoSync: true},
	},
	{
		name: "version-write", objects: 10_000, size: 1024, versions: 1,
		rate: 5_000, clients: 2, pairEvery: 8,
		options: ode.Options{Shards: shards, NoSync: true, Policy: ode.FullCopy},
	},
	{
		name: "mixed-delta", objects: 4096, size: 1024, versions: 2, zipf: 1.2,
		rate: 17_000, clients: 2, mix: [4]int{80, 10, 0, 0},
		options: ode.Options{Shards: shards, NoSync: true, DeltaTier: true, AnchorInterval: 8},
	},
	{
		// Eight committers on two processors: each is parked on the
		// modeled flush nearly all the time, and with two no batch forms.
		name: "durable-commit", objects: 4096, size: 256, versions: 1,
		rate: 3_000, clients: 8, syncDelay: time.Millisecond, recovery: true,
		options: ode.Options{Shards: shards},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// cpuBound reports whether clients compete for processors rather than
// wait on the modeled device.
func (w *workload) cpuBound() bool { return w.syncDelay == 0 }

// scaled returns the workload shrunk for a smoke run: the same shape at
// a fraction of the objects.
func (w *workload) scaled(f float64) *workload {
	c := *w
	c.objects = max(int(float64(w.objects)*f), 64)
	return &c
}

// scatter maps a zipfian rank to an object. The stride is fixed, not
// drawn from the seed: objects are preloaded to the shards in batches of
// preloadBatch, so stepping by a prime near ten batches deals
// consecutive ranks to different shards, and which shards hold the few
// hottest objects — which decides how writers of hot keys queue — is the
// same for every seed.
func scatter(rank uint64, objects int) uint32 {
	const stride = 1237
	return uint32(rank * stride % uint64(objects))
}

// genOps returns one client's operation stream. It depends on the seed,
// the client number and the workload alone.
func (w *workload) genOps(seed int64, client, n int) []op {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	pick := func() uint32 { return uint32(r.Intn(w.objects)) }
	if w.zipf > 0 {
		z := rand.NewZipf(r, w.zipf, 1, uint64(w.objects-1))
		pick = func() uint32 { return scatter(z.Uint64(), w.objects) }
	}
	ops := make([]op, n)
	writes := 0
	for i := range ops {
		o := op{kind: opWrite, obj: pick(), salt: r.Uint32()}
		roll, cum := r.Intn(100), 0
		for k, share := range w.mix {
			if cum += share; roll < cum {
				o.kind = opKind(k)
				break
			}
		}
		if o.kind == opWrite {
			if writes++; w.pairEvery > 0 && writes%w.pairEvery == 0 {
				o.kind = opWrite2
				if o.obj2 = pick(); o.obj2 == o.obj {
					o.obj2 = (o.obj + 1) % uint32(w.objects)
				}
			}
		}
		ops[i] = o
	}
	return ops
}
