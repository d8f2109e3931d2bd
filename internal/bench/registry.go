package bench

import "strings"

// Experiment is one regenerable table or figure: an id and description for
// CLI listings, a builder that lays out the sweep at a given subsample
// scale (1 = full resolution), and machine-readable metadata that
// `spinbench -list -json`, the serve layer's GET /experiments, and request
// validation all consume — one struct, one truth. The registry is the only
// entry point that regenerates a whole table or figure.
//
// The JSON field names are the serve layer's wire format; Build is
// deliberately excluded from it.
type Experiment struct {
	ID   string `json:"id"`
	Desc string `json:"desc"`
	// Build lays out the sweep at a subsample scale; it only registers
	// point closures — no engine runs until Sweep.Run — so building is
	// cheap enough for metadata queries and validation.
	Build func(scale int) *Sweep `json:"-"`
	// DefaultScale is the scale a request that doesn't specify one gets;
	// MinScale and MaxScale bound the accepted range. Experiments whose
	// builder ignores scale advertise Min == Max == 1, so every request
	// canonicalizes to the same cache key.
	DefaultScale int `json:"default_scale"`
	MinScale     int `json:"min_scale"`
	MaxScale     int `json:"max_scale"`
	// Columns are the produced table's column names, identical to
	// Build(scale).Header() at every scale; a registry test pins the two
	// against drift.
	Columns []string `json:"columns"`
	// Impairable reports whether an impairment spec is honored. spc's
	// trace replays run unimpaired — the RAID-5 service has no recovery
	// layer, so a lost packet would only wedge a replay — and requests
	// carrying a fault model for it are rejected by the server. fig7c's
	// single updates on the same raidsim systems do take the fault model.
	Impairable bool `json:"impairable"`
}

// maxSubsample is the widest subsample factor the registry admits for
// scale-sensitive experiments: every sweep degrades gracefully past it
// (each keeps at least its endpoint points), so the bound exists to give
// requests a canonical finite range, not to protect the builders.
const maxSubsample = 64

// Experiments returns every experiment of the paper's evaluation, in the
// order spinbench prints them.
func Experiments() []Experiment {
	return []Experiment{
		{
			ID: "fig3b", Desc: "ping-pong, integrated NIC", Build: fig3bSweep,
			DefaultScale: 1, MinScale: 1, MaxScale: maxSubsample, Impairable: true,
			Columns: []string{"bytes", "RDMA", "P4", "sPIN(store)", "sPIN(stream)"},
		},
		{
			ID: "fig3c", Desc: "ping-pong, discrete NIC", Build: fig3cSweep,
			DefaultScale: 1, MinScale: 1, MaxScale: maxSubsample, Impairable: true,
			Columns: []string{"bytes", "RDMA", "P4", "sPIN(store)", "sPIN(stream)"},
		},
		{
			ID: "fig3d", Desc: "remote accumulate, both NICs", Build: fig3dSweep,
			DefaultScale: 1, MinScale: 1, MaxScale: maxSubsample, Impairable: true,
			Columns: []string{"bytes", "RDMA/P4(int)", "sPIN(int)", "RDMA/P4(dis)", "sPIN(dis)"},
		},
		{
			ID: "fig4", Desc: "HPUs needed for line rate (model)", Build: fig4Sweep,
			DefaultScale: 1, MinScale: 1, MaxScale: 1, Impairable: true,
			Columns: []string{"pkt_bytes", "T=100ns", "T=200ns", "T=500ns", "T=1000ns"},
		},
		{
			ID: "fig5a", Desc: "binomial broadcast, discrete NIC", Build: fig5aSweep,
			DefaultScale: 1, MinScale: 1, MaxScale: maxSubsample, Impairable: true,
			Columns: []string{"procs", "RDMA(8B)", "P4(8B)", "sPIN(8B)", "RDMA(64KiB)", "P4(64KiB)", "sPIN(64KiB)"},
		},
		{
			ID: "table5c", Desc: "application speedups from offloaded matching", Build: table5cSweep,
			DefaultScale: 1, MinScale: 1, MaxScale: maxSubsample, Impairable: true,
			Columns: []string{"program", "p", "msgs", "ovhd", "spdup", "paper_ovhd", "paper_spdup"},
		},
		{
			ID: "fig7a", Desc: "strided datatype receive", Build: fig7aSweep,
			DefaultScale: 1, MinScale: 1, MaxScale: maxSubsample, Impairable: true,
			Columns: []string{"blocksize", "RDMA_us", "RDMA_GiB/s", "sPIN_us", "sPIN_GiB/s"},
		},
		{
			ID: "fig7c", Desc: "distributed RAID-5 update", Build: fig7cSweep,
			DefaultScale: 1, MinScale: 1, MaxScale: maxSubsample, Impairable: true,
			Columns: []string{"bytes", "RDMA/P4(int)", "sPIN(int)", "RDMA/P4(dis)", "sPIN(dis)"},
		},
		{
			ID: "spc", Desc: "SPC storage trace replay on RAID-5", Build: spcSweep,
			DefaultScale: 1, MinScale: 1, MaxScale: 1, Impairable: false,
			Columns: []string{"trace", "writes", "RDMA(int)", "sPIN(int)", "improv(int)", "RDMA(dis)", "sPIN(dis)", "improv(dis)"},
		},
		{
			ID: "noise", Desc: "ablation: OS-noise sensitivity", Build: noiseSweep,
			DefaultScale: 1, MinScale: 1, MaxScale: 1, Impairable: true,
			Columns: []string{"variant", "quiet", "noisy", "slowdown"},
		},
		{
			ID: "bcast-store", Desc: "ablation: store-and-forward vs streaming", Build: bcastStoreSweep,
			DefaultScale: 1, MinScale: 1, MaxScale: 1, Impairable: true,
			Columns: []string{"bytes", "P4", "sPIN(store)", "sPIN(stream)", "store_vs_ref"},
		},
		{
			ID: "trees", Desc: "ablation: binomial vs pipeline broadcast", Build: treesSweep,
			DefaultScale: 1, MinScale: 1, MaxScale: 1, Impairable: true,
			Columns: []string{"bytes", "binomial", "pipeline", "winner"},
		},
		{
			ID: "ftbcast", Desc: "fault-tolerant broadcast under injected faults", Build: ftbcastSweep,
			DefaultScale: 1, MinScale: 1, MaxScale: maxSubsample, Impairable: true,
			Columns: []string{"procs", "bcasts", "links_down", "lost", "blocked", "nic_dups", "retrans", "giveups", "last_us"},
		},
	}
}

// registry is Experiments() built once, for lookups that must not rebuild
// it: FindExperiment runs on every spinserve request. Nothing writes it.
var registry = Experiments()

// FindExperiment resolves an experiment id case-insensitively, without
// allocating. The returned Experiment shares its Columns slice with the
// registry, so callers must treat it as read-only.
func FindExperiment(id string) (Experiment, bool) {
	for i := range registry {
		if strings.EqualFold(registry[i].ID, id) {
			return registry[i], true
		}
	}
	return Experiment{}, false
}

// ExperimentIDs returns every registered id in print order, for error
// messages that name the valid values.
func ExperimentIDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return ids
}
