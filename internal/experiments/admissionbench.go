package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/streamtune/streamtune/internal/cluster"
	"github.com/streamtune/streamtune/internal/dag"
	"github.com/streamtune/streamtune/internal/ged"
	"github.com/streamtune/streamtune/internal/parallel"
)

// admissionK is the cluster count the admission bench maintains — the
// same order as the paper's Nexmark+PQP clustering.
const admissionK = 8

// admissionVerifySamples caps the number of admissions per scale that
// are differentially verified against the canonical center scan
// (uncached exact GED per center). Verification time is excluded from
// the throughput measurement either way.
const admissionVerifySamples = 128

// AdmissionBenchRow is one corpus scale of the admission benchmark:
// a seed clustering is grown to Size graphs through the Incremental
// maintainer (learned band + pivot index over a bounded shared cache),
// timed against a batch-only pipeline that keeps its clustering
// comparably current by re-running global K-means on every 25% of
// corpus growth.
type AdmissionBenchRow struct {
	Size           int `json:"size"`
	SeedSize       int `json:"seed_size"`
	Clusters       int `json:"clusters"`
	DistinctGraphs int `json:"distinct_graphs"`
	Admitted       int `json:"admitted"`

	IncrementalSeconds  float64 `json:"incremental_seconds"`
	AdmissionsPerSecond float64 `json:"admissions_per_second"`
	BatchSeconds        float64 `json:"batch_kmeans_seconds"`
	// AdmissionSpeedup is batch wall clock over incremental wall clock
	// for absorbing the same stream at the same clustering currency.
	AdmissionSpeedup float64 `json:"admission_speedup"`

	// Re-centering work: lazy local re-centers performed by the
	// maintainer vs the global K-means re-runs of the batch baseline
	// (one per 25% corpus growth) and their summed K x iterations full
	// center updates.
	IncrementalRecenters int `json:"incremental_recenters"`
	BatchReclusters      int `json:"batch_reclusters"`
	BatchCenterUpdates   int `json:"batch_center_updates"`

	// Assignment-path split: nearest-center queries served through the
	// pivot metric index vs the band's ordered-certificate scan.
	IndexedAssigns int `json:"indexed_assigns"`
	BandAssigns    int `json:"band_assigns"`

	// Learned-band accounting over the whole stream. Hits are pairs
	// decided by certificate without an exact search; fallbacks opened
	// one. The fraction is fallbacks over (hits + fallbacks).
	BandHits             uint64  `json:"band_hits"`
	BandFallbacks        uint64  `json:"band_fallbacks"`
	BandFallbackFraction float64 `json:"band_fallback_fraction"`
	BandTrained          bool    `json:"band_trained"`
	BandFits             uint64  `json:"band_fits"`

	// Bounded shared distance cache behind the band.
	PairCacheLen    int    `json:"pair_cache_len"`
	PairCacheCap    int    `json:"pair_cache_cap"`
	PairCacheResets uint64 `json:"pair_cache_resets"`

	// VerifiedAdds admissions were cross-checked against the canonical
	// linear center scan with fresh uncached exact GED calls; the bench
	// errors on the first divergence, so a written report always has
	// AssignmentsExact true.
	VerifiedAdds     int  `json:"verified_adds"`
	AssignmentsExact bool `json:"assignments_exact"`
}

// AdmissionBenchReport is the full admission benchmark: the per-scale
// corpus-growth rows. Service-side admission is measured by the
// benchmark (bench/, ged.assign_us and service.register_ms).
type AdmissionBenchReport struct {
	Workers int                 `json:"workers"`
	Scales  []AdmissionBenchRow `json:"scales"`
}

// GEDReport is the combined BENCH_ged.json shape: the PR2 engine rows
// under "ged" and the admission benchmark under "admission".
type GEDReport struct {
	GED       []GEDBenchRow         `json:"ged"`
	Admission *AdmissionBenchReport `json:"admission,omitempty"`
}

// AdmissionBench grows a clustered corpus to each size through the
// Incremental maintainer and times it against periodic global K-means
// re-runs over the growing corpus, differentially verifying sampled
// assignments against the canonical center scan.
func AdmissionBench(opts Options, sizes []int) (*AdmissionBenchReport, error) {
	report := &AdmissionBenchReport{Workers: parallel.Workers(opts.Parallelism)}
	for _, size := range sizes {
		row, err := admissionScale(opts, size)
		if err != nil {
			return nil, err
		}
		report.Scales = append(report.Scales, *row)
	}
	return report, nil
}

// admissionScale runs one corpus-growth scale.
func admissionScale(opts Options, size int) (*AdmissionBenchRow, error) {
	set := randomDAGSet(opts.Seed, size)
	if len(set) == 0 {
		return nil, fmt.Errorf("admissionbench: empty DAG set at size %d", size)
	}
	seedSize := size / 16
	if seedSize < 2*admissionK {
		seedSize = 2 * admissionK
	}
	if seedSize > 256 {
		seedSize = 256
	}
	if seedSize >= size {
		return nil, fmt.Errorf("admissionbench: size %d leaves no stream past the %d-graph seed", size, seedSize)
	}
	copts := cluster.DefaultOptions(admissionK)
	copts.Workers = opts.Parallelism

	seed, err := cluster.KMeans(set[:seedSize], copts)
	if err != nil {
		return nil, fmt.Errorf("admissionbench: seed clustering: %w", err)
	}
	row := &AdmissionBenchRow{
		Size:           size,
		SeedSize:       seedSize,
		Clusters:       len(seed.Centers),
		DistinctGraphs: distinctStructures(set),
	}

	// The maintainer's band shares one bounded cache — the memory
	// contract a long-lived admission path needs.
	cache := ged.NewPairCacheCap(1 << 17)
	band := ged.NewBand(cache, ged.DefaultBandOptions())
	inc, err := cluster.NewIncremental(seed, set[:seedSize], cluster.IncrementalOptions{
		Options: copts,
		Band:    band,
	})
	if err != nil {
		return nil, err
	}

	stream := set[seedSize:]
	stride := len(stream) / admissionVerifySamples
	if stride < 1 {
		stride = 1
	}
	var incDur time.Duration
	for i, g := range stream {
		verify := i%stride == 0
		var wantC int
		var wantD float64
		if verify {
			// Canonical reference: a linear scan over the centers as they
			// stand right now, with fresh uncached exact GED calls (strict
			// <, ties to the first index) — independent of the band, the
			// pivot index, and the shared cache.
			wantC, wantD = canonicalNearest(g, inc.Result().Centers)
		}
		t0 := time.Now()
		c, d, err := inc.Add(g)
		incDur += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("admissionbench: admit #%d: %w", i, err)
		}
		if verify {
			row.VerifiedAdds++
			if c != wantC || d != wantD {
				return nil, fmt.Errorf("admissionbench: size %d admit #%d: incremental (%d, %v) != canonical scan (%d, %v)",
					size, i, c, d, wantC, wantD)
			}
		}
	}
	row.AssignmentsExact = true
	row.Admitted = len(stream)
	row.IncrementalSeconds = incDur.Seconds()
	if row.IncrementalSeconds > 0 {
		row.AdmissionsPerSecond = float64(row.Admitted) / row.IncrementalSeconds
	}

	ist := inc.Stats()
	row.IncrementalRecenters = ist.Recenters
	row.IndexedAssigns = ist.IndexedAssigns
	row.BandAssigns = ist.BandAssigns

	bst := band.Stats()
	row.BandHits = bst.Hits
	row.BandFallbacks = bst.Fallbacks
	row.BandTrained = bst.Trained
	row.BandFits = bst.Fits
	if tot := bst.Hits + bst.Fallbacks; tot > 0 {
		row.BandFallbackFraction = float64(bst.Fallbacks) / float64(tot)
	}
	row.PairCacheLen = cache.Len()
	row.PairCacheCap = cache.Cap()
	row.PairCacheResets = cache.Resets()

	// Baseline: a batch-only pipeline keeps admissions current by
	// re-running global K-means whenever the corpus has grown 25% past
	// the last run — the same churn policy that triggers the
	// maintainer's local re-centers — and once more at the final size.
	// The seed clustering is free on both sides, and the baseline's
	// per-arrival assignment scans between re-runs are not charged at
	// all, so the comparison flatters the baseline if anything.
	t0 := time.Now()
	for next := seedSize + seedSize/4; ; next += next / 4 {
		if next > size {
			next = size
		}
		batch, err := cluster.KMeans(set[:next], copts)
		if err != nil {
			return nil, fmt.Errorf("admissionbench: batch baseline at %d: %w", next, err)
		}
		row.BatchReclusters++
		row.BatchCenterUpdates += batch.Iterations * len(batch.Centers)
		if next == size {
			break
		}
	}
	row.BatchSeconds = time.Since(t0).Seconds()
	if row.IncrementalSeconds > 0 {
		row.AdmissionSpeedup = row.BatchSeconds / row.IncrementalSeconds
	}
	return row, nil
}

// canonicalNearest is the reference nearest-center scan: plain exact
// GED per center, strict <, ties to the first index.
func canonicalNearest(g *dag.Graph, centers []*dag.Graph) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for c, center := range centers {
		if d := ged.Distance(g, center); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// AdmissionBenchTable renders the benchmark report.
func AdmissionBenchTable(r *AdmissionBenchReport) *Table {
	t := &Table{
		Title: fmt.Sprintf("Corpus admission: incremental maintainer vs global K-means (K=%d), %d workers",
			admissionK, r.Workers),
		Header: []string{
			"Scale", "Seed", "Adds/s", "Incremental", "Batch", "Speedup",
			"Recenters", "Batch runs/updates", "Band fallback", "Verified",
		},
	}
	for _, row := range r.Scales {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Size),
			fmt.Sprintf("%d", row.SeedSize),
			fmt.Sprintf("%.0f", row.AdmissionsPerSecond),
			fmt.Sprintf("%.3fs", row.IncrementalSeconds),
			fmt.Sprintf("%.3fs", row.BatchSeconds),
			fmt.Sprintf("%.1fx", row.AdmissionSpeedup),
			fmt.Sprintf("%d", row.IncrementalRecenters),
			fmt.Sprintf("%d / %d", row.BatchReclusters, row.BatchCenterUpdates),
			fmt.Sprintf("%.0f%%", 100*row.BandFallbackFraction),
			fmt.Sprintf("%d exact", row.VerifiedAdds),
		})
	}
	return t
}
