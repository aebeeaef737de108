package main

import (
	"sort"
	"time"

	"starlink"
	"starlink/internal/netapi"
)

// addMetrics accumulates the counters and latency sums of b into a —
// what the per-layer figures read from a churn window's many
// short-lived dispatchers.
func addMetrics(a, b starlink.Metrics) starlink.Metrics {
	a.Dispatch.Dispatched += b.Dispatch.Dispatched
	a.Dispatch.Ambiguous += b.Dispatch.Ambiguous
	a.Dispatch.Unroutable += b.Dispatch.Unroutable
	a.Dispatch.Suppressed += b.Dispatch.Suppressed
	a.Dispatch.FastPath += b.Dispatch.FastPath
	a.Dispatch.SlowPath += b.Dispatch.SlowPath
	a.Dispatch.FastPathLatency = addLatency(a.Dispatch.FastPathLatency, b.Dispatch.FastPathLatency)
	a.Dispatch.SlowPathLatency = addLatency(a.Dispatch.SlowPathLatency, b.Dispatch.SlowPathLatency)
	if a.Latency == nil {
		a.Latency = make([]starlink.StageLatency, len(b.Latency))
	}
	for i := range b.Latency {
		a.Latency[i] = addLatency(a.Latency[i], b.Latency[i])
	}
	if a.Lanes == nil {
		a.Lanes = make([]starlink.LaneMetrics, len(b.Lanes))
	}
	for i := range b.Lanes {
		a.Lanes[i].Lane = b.Lanes[i].Lane
		a.Lanes[i].Shed += b.Lanes[i].Shed
		a.Lanes[i].Wait = addLatency(a.Lanes[i].Wait, b.Lanes[i].Wait)
	}
	return a
}

func addLatency(a, b starlink.StageLatency) starlink.StageLatency {
	a.Stage = b.Stage
	a.Count += b.Count
	a.Sum += b.Sum
	return a
}

// stageDelta returns the count and summed time a stage row gained
// between two snapshots.
func stageDelta(m0, m1 starlink.Metrics, stage string) (uint64, time.Duration) {
	var c0, c1 uint64
	var s0, s1 time.Duration
	for _, row := range m0.Latency {
		if row.Stage == stage {
			c0, s0 = row.Count, row.Sum
		}
	}
	for _, row := range m1.Latency {
		if row.Stage == stage {
			c1, s1 = row.Count, row.Sum
		}
	}
	return c1 - c0, s1 - s0
}

// perCall is a mean in microseconds, 0 when nothing was recorded.
func perCall(sum time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum.Nanoseconds()) / 1e3 / float64(n)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics records the per-layer figures of the traced window w;
// base is the untraced window run just before it on the same
// deployment, against which the tracing overhead is reported.
func (r *run) layerMetrics(w, base *window) {
	done := float64(w.done)
	set := func(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

	io0, io1 := w.io0, w.io1
	recvBatches := io1.RecvBatches - io0.RecvBatches
	recvBatchPkts := io1.RecvBatchPackets - io0.RecvBatchPackets
	recvSingles := io1.RecvSingles - io0.RecvSingles
	sends := (io1.SendBatches - io0.SendBatches) + (io1.SendSingles - io0.SendSingles)
	flushes := io1.StreamFlushes - io0.StreamFlushes
	set("realnet.recv_batch_mean", ratio(recvBatchPkts, recvBatches), "count")
	set("realnet.syscalls_per_exchange", float64(recvBatches+recvSingles+sends+flushes)/done, "count")
	set("realnet.datagrams_per_exchange", float64(recvBatchPkts+recvSingles)/done, "count")

	set("netapi.leased_buffers_peak", w.leasePeak, "count")
	set("netapi.slab_bytes_live", w.leaseMean*netapi.BufferSize, "B")

	m0, m1 := w.m0, w.m1
	fastN := m1.Dispatch.FastPathLatency.Count - m0.Dispatch.FastPathLatency.Count
	slowN := m1.Dispatch.SlowPathLatency.Count - m0.Dispatch.SlowPathLatency.Count
	classSum := (m1.Dispatch.FastPathLatency.Sum - m0.Dispatch.FastPathLatency.Sum) +
		(m1.Dispatch.SlowPathLatency.Sum - m0.Dispatch.SlowPathLatency.Sum)
	set("provision.classify_us", perCall(classSum, fastN+slowN), "us")
	fast := m1.Dispatch.FastPath - m0.Dispatch.FastPath
	slow := m1.Dispatch.SlowPath - m0.Dispatch.SlowPath
	set("provision.fast_path_share", ratio(uint64(fast), uint64(fast+slow)), "ratio")
	set("provision.suppressed_per_exchange", float64(m1.Dispatch.Suppressed-m0.Dispatch.Suppressed)/done, "count")
	set("provision.deploy_ms", median(append([]float64(nil), r.deployMS...)), "ms")
	set("registry.load_ms", median(append([]float64(nil), r.loadMS...)), "ms")

	var waitN uint64
	var waitSum time.Duration
	shed := 0
	for i := range m1.Lanes {
		waitN += m1.Lanes[i].Wait.Count
		waitSum += m1.Lanes[i].Wait.Sum
		shed += m1.Lanes[i].Shed
		if i < len(m0.Lanes) {
			waitN -= m0.Lanes[i].Wait.Count
			waitSum -= m0.Lanes[i].Wait.Sum
			shed -= m0.Lanes[i].Shed
		}
	}
	set("lanes.wait_us", perCall(waitSum, waitN), "us")
	set("lanes.shed", float64(shed), "count")

	for _, st := range []struct{ stage, name string }{
		{"recv", "engine.recv_us"}, {"transition", "engine.transition_us"}, {"session", "engine.session_us"},
	} {
		n, sum := stageDelta(m0, m1, st.stage)
		set(st.name, perCall(sum, n), "us")
	}
	// The codec stages per exchange, to set beside cpu_us_per_exchange.
	for _, st := range []struct{ stage, name string }{
		{"parse", "parser.parse_us"}, {"translate", "translation.translate_us"}, {"compose", "composer.compose_us"},
	} {
		_, sum := stageDelta(m0, m1, st.stage)
		set(st.name, float64(sum.Nanoseconds())/1e3/done, "us")
	}

	set("process.cpu_us_per_exchange", w.cpuPerExchange(), "us")
	set("process.heap_bytes_per_exchange", float64(w.mem1.totalAlloc-w.mem0.totalAlloc)/done, "B")
	set("process.latency_p50_us", us(quantile(w.lat[classProbe], 0.50)), "us")
	set("process.latency_p90_us", us(quantile(w.lat[classProbe], 0.90)), "us")
	set("process.latency_p99_us", us(quantile(w.lat[classProbe], 0.99)), "us")
	set("process.host_steal_share", w.steal, "ratio")
	set("provision.cycle_p50_ms", median(append([]float64(nil), r.cycleMS...)), "ms")
	set("process.gc_cycles_per_1k", float64(w.mem1.numGC-w.mem0.numGC)/done*1000, "count")
	set("process.rss_bytes", rssBytes(), "B")
	set("gen.late_p90_us", us(quantile(w.late, 0.90)), "us")
	set("gen.native_replies_per_request", ratio(uint64(w.native), uint64(w.attempted)), "ratio")
	set("trace.overhead_ratio", w.cpuPerExchange()/base.cpuPerExchange(), "ratio")
}

// ledger replays the run's captured payloads through each exercised
// case's codec layers and reconciles the result with the traced
// window's stage sums and CPU per exchange.
func (r *run) ledger(w *window) error {
	r.gen.mu.Lock()
	inputs, err := ledgerInputs(r.gen.captured)
	r.gen.mu.Unlock()
	if err != nil {
		return err
	}
	root := r.tr.begin("ledger.replay", 0, 0)
	defer r.tr.end(root)
	var total int64
	for _, n := range w.perKind {
		total += n
	}
	var ns, allocs [numLedger]float64
	for k := kind(0); k < numKinds; k++ {
		if w.perKind[k] == 0 {
			continue
		}
		name := r.spec.caseOf(k)
		rp, err := newReplayer(r.reg, name, inputs, r.gen.targets[k].bridged)
		if err != nil {
			return err
		}
		row, err := rp.measure(r.tr, root, ledgerReplays)
		if err != nil {
			return err
		}
		share := float64(w.perKind[k]) / float64(total)
		for l := 0; l < numLedger; l++ {
			ns[l] += share * row.ns[l]
			allocs[l] += share * row.allocs[l]
		}
		r.logf("ledger %-16s share %.3f  classify %6.2fus/%4.1fa  parse %6.2fus/%5.1fa  translate %6.2fus/%5.1fa  compose %6.2fus/%5.1fa",
			name, share, row.ns[lClassify]/1e3, row.allocs[lClassify], row.ns[lParse]/1e3, row.allocs[lParse],
			row.ns[lTranslate]/1e3, row.allocs[lTranslate], row.ns[lCompose]/1e3, row.allocs[lCompose])
	}
	done := float64(w.done)
	stage := map[int]float64{}
	for l, s := range map[int]string{lParse: "parse", lTranslate: "translate", lCompose: "compose"} {
		_, sum := stageDelta(w.m0, w.m1, s)
		stage[l] = float64(sum.Nanoseconds()) / 1e3 / done
	}
	classSum := (w.m1.Dispatch.FastPathLatency.Sum - w.m0.Dispatch.FastPathLatency.Sum) +
		(w.m1.Dispatch.SlowPathLatency.Sum - w.m0.Dispatch.SlowPathLatency.Sum)
	stage[lClassify] = float64(classSum.Nanoseconds()) / 1e3 / done

	cpu := w.cpuPerExchange()
	var codec float64
	r.logf("reconcile (us per verified exchange): layer, ledger replay, live stage histograms")
	for l := 0; l < numLedger; l++ {
		codec += ns[l] / 1e3
		r.logf("reconcile %-22s %8.2f %8.2f", ledgerNames[l], ns[l]/1e3, stage[l])
		r.layer[ledgerNames[l]+"_allocs"] = metric{allocs[l], "count"}
	}
	residual := cpu - codec
	r.logf("reconcile %-22s %8.2f", "codec layers (ledger)", codec)
	r.logf("reconcile %-22s %8.2f  (outside the codec layers: transport, scheduling, sessions, deploy and teardown, legacy peers, generator)", "unexplained residual", residual)
	r.logf("reconcile %-22s %8.2f", "cpu_us_per_exchange", cpu)
	r.layer["ledger.codec_us"] = metric{codec, "us"}
	r.layer["ledger.residual_us"] = metric{residual, "us"}
	return nil
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
