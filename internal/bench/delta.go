package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"ode"
)

// DeltaJSONPath, when non-empty, is where E17 writes its
// machine-readable results. cmd/odebench points it at BENCH_delta.json
// in the invocation directory; tests leave it empty.
var DeltaJSONPath = ""

// DeltaResult is one E17 cell: a storage mode (full copies, or the
// delta tier at one anchor interval) measured on the same deep linear
// edit chain. Ratios are against the full-copy baseline of the same
// run, so they cancel host drift.
type DeltaResult struct {
	Mode           string `json:"mode"` // "full" or "delta"
	AnchorInterval int    `json:"anchor_interval"`
	Versions       int    `json:"versions"`
	PayloadBytes   int    `json:"payload_bytes"`

	// Physical representation after the compaction fixpoint.
	FullPayloads  int   `json:"full_payloads"`
	DeltaPayloads int   `json:"delta_payloads"`
	SamePayloads  int   `json:"same_payloads"`
	HeapBytes     int64 `json:"heap_bytes"`
	LogicalBytes  int64 `json:"logical_bytes"`
	MaxDepth      int   `json:"max_depth"`
	// SpaceReduction is fullHeapBytes / heapBytes (1.0 for the baseline
	// itself; the delta rows are the headline claim).
	SpaceReduction float64 `json:"space_reduction_vs_full"`

	// Cold reads: random-depth derefs, each walking its delta chain from
	// the nearest full anchor.
	ColdP50US float64 `json:"cold_p50_us"`
	ColdP99US float64 `json:"cold_p99_us"`
	// ColdMaxLinks is the largest payload-record walk any
	// materialisation did (from ode_delta_chain_len): bounded by the
	// anchor interval plus the anchor itself.
	ColdMaxLinks uint64 `json:"cold_max_links"`

	// Hot reads: the same deep version re-read with its pages warm,
	// against the full-copy baseline's read of the same version.
	HotMeanUS float64 `json:"hot_mean_us"`
	HotP99US  float64 `json:"hot_p99_us"`
	// HotVsFull is hotMean / baselineHotMean: what applying up to an
	// anchor interval of deltas costs over reading one full payload.
	HotVsFull float64 `json:"hot_vs_full_ratio"`
}

// deltaEdit mutates a copy of prev: a short random splice, the shape of
// successive revisions in the paper's CAD setting. The result differs
// from prev by ~24 bytes, so a delta encoding is small while a full
// copy pays the whole payload again.
func deltaEdit(rng *rand.Rand, prev []byte) []byte {
	out := append([]byte(nil), prev...)
	off := rng.Intn(len(out) - 24)
	rng.Read(out[off : off+24])
	return out
}

// E17 — delta-compressed version storage: one object grows a deep
// linear chain of small edits under (a) full-copy storage and (b) the
// delta tier at anchor intervals 4 and 16. After compacting to the
// fixpoint we measure the payload heap against the logical payload
// volume, cold reads that materialise through the delta chain, and hot
// re-reads of one deep version against the full-copy baseline.
func E17(root string, s Scale) (*Table, error) {
	nVersions := s.n(1000)
	if nVersions < 40 {
		nVersions = 40
	}
	const payloadBytes = 1024
	coldReads := s.n(400)
	hotReads := s.n(2000)

	t := &Table{
		Title: "E17 — delta-compressed version storage (deep-history chain)",
		Note: fmt.Sprintf("one object, %d-version linear chain of 24-byte edits on a %d-byte payload; delta rows are compacted to the fixpoint before measuring. space reduction = full-copy heap / delta heap. cold = random-depth reads, each a chain walk; hot = re-reads of one deep version vs the full-copy baseline.",
			nVersions, payloadBytes),
		Headers: []string{"mode", "anchor", "payload heap", "space vs full", "max depth", "cold p50/p99 (µs)", "max links", "hot mean (µs)", "hot vs full"},
	}

	type cfg struct {
		mode     string
		interval int
	}
	cfgs := []cfg{{"full", 0}, {"delta", 4}, {"delta", 16}}

	var results []DeltaResult
	var fullHeap int64
	var fullHotMeanUS float64
	for ci, c := range cfgs {
		dir := filepath.Join(root, fmt.Sprintf("e17-%d", ci))
		opts := &ode.Options{NoSync: true, CheckpointBytes: -1, Shards: 1}
		if c.mode == "delta" {
			opts.DeltaTier = true
			opts.AnchorInterval = c.interval
		}
		db, err := ode.Open(dir, opts)
		if err != nil {
			return nil, err
		}
		tid, err := db.Engine().RegisterType("DeltaBench")
		if err != nil {
			db.Close()
			return nil, err
		}

		// Build the chain deterministically (same seed per mode, so
		// every mode stores byte-identical version history).
		rng := rand.New(rand.NewSource(1700))
		content := make([]byte, payloadBytes)
		rng.Read(content)
		var o ode.OID
		vids := make([]ode.VID, 0, nVersions)
		err = db.Update(func(tx *ode.Tx) error {
			var v ode.VID
			var err error
			o, v, err = tx.CreateRaw(tid, content)
			vids = append(vids, v)
			return err
		})
		if err == nil {
			for len(vids) < nVersions {
				content = deltaEdit(rng, content)
				err = db.Update(func(tx *ode.Tx) error {
					v, err := tx.NewVersion(o)
					if err != nil {
						return err
					}
					vids = append(vids, v)
					return tx.UpdateVersionRaw(o, v, content)
				})
				if err != nil {
					break
				}
			}
		}
		if err == nil && c.mode == "delta" {
			_, err = db.Compact()
		}
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("E17 %s/%d: %w", c.mode, c.interval, err)
		}

		ps, err := db.Engine().PayloadStats()
		if err != nil {
			db.Close()
			return nil, err
		}

		// Cold: random versions, so each deref walks its chain from the
		// nearest anchor through pages it has not just read.
		readRng := rand.New(rand.NewSource(1701))
		var coldTm Timer
		err = db.View(func(tx *ode.Tx) error {
			for i := 0; i < coldReads; i++ {
				v := vids[readRng.Intn(len(vids))]
				coldTm.Time(func() {
					if _, err := tx.ReadVersionRaw(o, v); err != nil {
						panic(err)
					}
				})
			}
			return nil
		})
		if err != nil {
			db.Close()
			return nil, err
		}

		// Hot: one deep (delta-encoded) version, read again and again.
		hotV := vids[len(vids)-2]
		var hotTm Timer
		err = db.View(func(tx *ode.Tx) error {
			if _, err := tx.ReadVersionRaw(o, hotV); err != nil {
				return err
			}
			hotTm.TimeN(hotReads, func() {
				if _, err := tx.ReadVersionRaw(o, hotV); err != nil {
					panic(err)
				}
			})
			return nil
		})
		if err != nil {
			db.Close()
			return nil, err
		}

		ms := db.Metrics()
		if err := db.Close(); err != nil {
			return nil, err
		}

		r := DeltaResult{
			Mode: c.mode, AnchorInterval: c.interval,
			Versions: nVersions, PayloadBytes: payloadBytes,
			FullPayloads: ps.Full, DeltaPayloads: ps.Delta, SamePayloads: ps.Same,
			HeapBytes: ps.HeapBytes(), LogicalBytes: ps.LogicalBytes,
			MaxDepth:     ps.MaxDepth,
			ColdP50US:    float64(coldTm.Mean().Nanoseconds()) / 1e3,
			ColdP99US:    float64(coldTm.P99().Nanoseconds()) / 1e3,
			ColdMaxLinks: ms.DeltaChainLen.Max,
			HotMeanUS:    float64(hotTm.Mean().Nanoseconds()) / 1e3,
			HotP99US:     float64(hotTm.P99().Nanoseconds()) / 1e3,
		}
		if c.mode == "full" {
			fullHeap = r.HeapBytes
			fullHotMeanUS = r.HotMeanUS
			r.SpaceReduction = 1
			r.HotVsFull = 1
		} else {
			if r.HeapBytes > 0 {
				r.SpaceReduction = float64(fullHeap) / float64(r.HeapBytes)
			}
			if fullHotMeanUS > 0 {
				r.HotVsFull = r.HotMeanUS / fullHotMeanUS
			}
		}
		results = append(results, r)
		t.AddRow(r.Mode, fmt.Sprintf("%d", r.AnchorInterval), Bytes(r.HeapBytes),
			fmt.Sprintf("%.1fx", r.SpaceReduction),
			fmt.Sprintf("%d", r.MaxDepth),
			fmt.Sprintf("%.1f/%.1f", r.ColdP50US, r.ColdP99US),
			fmt.Sprintf("%d", r.ColdMaxLinks),
			fmt.Sprintf("%.2f", r.HotMeanUS),
			fmt.Sprintf("%.2fx", r.HotVsFull))
	}

	if DeltaJSONPath != "" {
		blob, err := json.MarshalIndent(struct {
			Experiment string        `json:"experiment"`
			Results    []DeltaResult `json:"results"`
		}{"E17-delta-compressed-version-storage", results}, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(DeltaJSONPath, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return t, nil
}
