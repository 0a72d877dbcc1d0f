package core

import (
	"fmt"
	"math"

	"ntcsim/internal/obs"
	"ntcsim/internal/sampling"
	"ntcsim/internal/workload"
)

// uipcBounds is the fixed bucket layout of the per-window UIPC histogram:
// a power-of-two ladder wide enough for any cluster configuration. Fixed
// bounds keep snapshots structurally identical across runs.
var uipcBounds = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32}

// pointKey builds the unique gauge-name prefix for one sweep point. Each
// (variant label, workload, frequency) triple writes its own gauges
// exactly once, which is what makes float-valued gauges safe under the
// determinism contract: two model variants sweeping the same workload into
// one registry must carry distinct labels, or the last writer would win.
func pointKey(label string, p *workload.Profile, freqHz float64) string {
	return fmt.Sprintf("%spoint.%s.%04.0fMHz.", label, p.Name, freqHz/1e6)
}

// harvestResult folds one sweep point's sampled measurements into the
// registry: cumulative counters (commutative uint64 adds — deterministic
// across worker counts), the per-window UIPC histogram, and the point's
// uniquely-keyed result gauges.
func harvestResult(sink obs.Sink, label string, p *workload.Profile, freqHz float64, res sampling.Result, pt Point) {
	windows := sink.Counter("sim.windows")
	windows.Add(uint64(len(res.Samples)))
	sink.Counter("sim.cycles").Add(uint64(res.TotalCycles))
	sink.Counter("sim.instructions").Add(res.TotalInstr)
	sink.Counter("sim.user_instructions").Add(res.TotalUserInstr)

	uipc := sink.Histogram("sim.uipc_window", uipcBounds)
	var cpuAgg struct {
		branches, mispredicts, prefetches          uint64
		frontend, rob, dep, issue, mem             uint64
		llcReq                                     uint64
		l1iAcc, l1iHit, l1iMiss, l1iWB             uint64
		l1dAcc, l1dHit, l1dMiss, l1dWB             uint64
		llcAcc, llcHit, llcMiss, llcWB             uint64
		xbar                                       uint64
		dramRd, dramWr, rowHit, rowConf, rowClosed uint64
		acts, bytesRd, bytesWr, refreshNs          uint64
	}
	for _, m := range res.Samples {
		uipc.Observe(m.UIPC())
		for _, cs := range m.PerCore {
			cpuAgg.branches += cs.Branches
			cpuAgg.mispredicts += cs.Mispredicts
			cpuAgg.prefetches += cs.Prefetches
			cpuAgg.frontend += cs.FrontendStall
			cpuAgg.rob += cs.ROBStall
			cpuAgg.dep += cs.DepStall
			cpuAgg.issue += cs.IssueStall
			cpuAgg.mem += cs.MemStall
			cpuAgg.llcReq += cs.LLCRequests
			cpuAgg.l1iAcc += cs.L1I.Accesses
			cpuAgg.l1iHit += cs.L1I.Hits
			cpuAgg.l1iMiss += cs.L1I.Misses
			cpuAgg.l1iWB += cs.L1I.Writebacks
			cpuAgg.l1dAcc += cs.L1D.Accesses
			cpuAgg.l1dHit += cs.L1D.Hits
			cpuAgg.l1dMiss += cs.L1D.Misses
			cpuAgg.l1dWB += cs.L1D.Writebacks
		}
		cpuAgg.llcAcc += m.LLC.Accesses
		cpuAgg.llcHit += m.LLC.Hits
		cpuAgg.llcMiss += m.LLC.Misses
		cpuAgg.llcWB += m.LLC.Writebacks
		cpuAgg.xbar += m.XbarTransfers
		cpuAgg.dramRd += m.DRAM.Reads
		cpuAgg.dramWr += m.DRAM.Writes
		cpuAgg.rowHit += m.DRAM.RowHits
		cpuAgg.rowConf += m.DRAM.RowConflicts
		cpuAgg.rowClosed += m.DRAM.RowClosed
		cpuAgg.acts += m.DRAM.Activations
		cpuAgg.bytesRd += m.DRAM.BytesRead
		cpuAgg.bytesWr += m.DRAM.BytesWritten
		// Rounded to integral nanoseconds per window BEFORE summing: each
		// window's value is deterministic, and uint64 adds commute, so the
		// total stays deterministic where a float sum would not.
		cpuAgg.refreshNs += uint64(math.Round(m.DRAM.RefreshStallsNs))
	}
	sink.Counter("cpu.branches").Add(cpuAgg.branches)
	sink.Counter("cpu.mispredicts").Add(cpuAgg.mispredicts)
	sink.Counter("cpu.prefetches").Add(cpuAgg.prefetches)
	sink.Counter("cpu.stall.frontend").Add(cpuAgg.frontend)
	sink.Counter("cpu.stall.rob").Add(cpuAgg.rob)
	sink.Counter("cpu.stall.dep").Add(cpuAgg.dep)
	sink.Counter("cpu.stall.issue").Add(cpuAgg.issue)
	sink.Counter("cpu.stall.mem").Add(cpuAgg.mem)
	sink.Counter("cpu.llc_requests").Add(cpuAgg.llcReq)
	sink.Counter("cache.l1i.accesses").Add(cpuAgg.l1iAcc)
	sink.Counter("cache.l1i.hits").Add(cpuAgg.l1iHit)
	sink.Counter("cache.l1i.misses").Add(cpuAgg.l1iMiss)
	sink.Counter("cache.l1i.writebacks").Add(cpuAgg.l1iWB)
	sink.Counter("cache.l1d.accesses").Add(cpuAgg.l1dAcc)
	sink.Counter("cache.l1d.hits").Add(cpuAgg.l1dHit)
	sink.Counter("cache.l1d.misses").Add(cpuAgg.l1dMiss)
	sink.Counter("cache.l1d.writebacks").Add(cpuAgg.l1dWB)
	sink.Counter("cache.llc.accesses").Add(cpuAgg.llcAcc)
	sink.Counter("cache.llc.hits").Add(cpuAgg.llcHit)
	sink.Counter("cache.llc.misses").Add(cpuAgg.llcMiss)
	sink.Counter("cache.llc.writebacks").Add(cpuAgg.llcWB)
	sink.Counter("uncore.xbar_transfers").Add(cpuAgg.xbar)
	sink.Counter("dram.reads").Add(cpuAgg.dramRd)
	sink.Counter("dram.writes").Add(cpuAgg.dramWr)
	sink.Counter("dram.row_hits").Add(cpuAgg.rowHit)
	sink.Counter("dram.row_conflicts").Add(cpuAgg.rowConf)
	sink.Counter("dram.row_closed").Add(cpuAgg.rowClosed)
	sink.Counter("dram.activations").Add(cpuAgg.acts)
	sink.Counter("dram.bytes_read").Add(cpuAgg.bytesRd)
	sink.Counter("dram.bytes_written").Add(cpuAgg.bytesWr)
	sink.Counter("dram.refresh_stall_ns").Add(cpuAgg.refreshNs)

	// The point's evaluated result: energy breakdown by component and the
	// efficiency/QoS figures, one uniquely-keyed gauge set per point.
	key := pointKey(label, p, freqHz)
	sink.Gauge(key + "uips_chip").Set(pt.UIPSChip)
	sink.Gauge(key + "cores_w").Set(pt.Power.CoresW)
	sink.Gauge(key + "uncore_w").Set(pt.Power.UncoreW)
	sink.Gauge(key + "memory_w").Set(pt.Power.MemoryW)
	sink.Gauge(key + "eff_cores").Set(pt.EffCores)
	sink.Gauge(key + "eff_soc").Set(pt.EffSoC)
	sink.Gauge(key + "eff_server").Set(pt.EffServer)
	sink.Gauge(key + "qos_metric").Set(pt.Metric)
	sink.Gauge(key + "rel_err").Set(pt.RelErr)
}
