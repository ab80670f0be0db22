package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"wsda/internal/sdk"
)

// reportedLayer are the per-layer metrics of the traced run's JSON line.
// Each is reported on every workload; a layer a workload leaves idle
// reads 0.
var reportedLayer = []string{
	"tenant.self_us_p50", "tenant.rejected",
	"shard.self_ms_p50", "shard.backend_ms_p50", "shard.backend_ms_p99",
	"shard.backend_first_item_ms_p50", "shard.skew_p90", "shard.fanout_mean", "shard.useful_item_ratio",
	"wsda.edge_self_ms_p50", "wsda.emit_us_per_item", "wsda.bytes_per_item", "wsda.client_ms_p50",
	"registry.query_self_ms_p50", "registry.query_self_ms_p99", "registry.first_emit_ms_p50",
	"registry.plan_index", "registry.plan_scan", "registry.plan_view",
	"registry.view_hits", "registry.view_misses", "registry.view_rebuilds",
	"registry.publish_ms_p50", "registry.publish_ms_p99", "registry.minquery_ms_p50",
	"changefeed.hold_ms_p50", "changefeed.changes_per_response", "changefeed.empty_ratio",
	"sdk.hit_ratio", "sdk.hit_us_p50", "sdk.miss_ms_p50", "sdk.invalidations_per_write", "sdk.cold_drops",
	"loadgen.lag_p99_ms", "loadgen.inflight_end", "loadgen.invalid",
	"loadgen.lookup.samples", "loadgen.list.samples", "loadgen.analyze.samples",
	"loadgen.publish.samples", "loadgen.visibility.samples",
	"process.cpu_ms_per_op", "process.allocs_per_op", "process.gc_pause_ms_total",
	"trace.capacity_untraced_ops_s", "trace.capacity_traced_ops_s", "trace.overhead_pct", "trace.spans",
}

// layerMetrics derives the per-layer metrics from the open loop's linked
// spans. sdkD holds the SDK counter deltas over the same phase and writes
// the number of writes it made.
func layerMetrics(spans []span, sdkD sdk.Stats, writes int) map[string]metric {
	kids := children(spans)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var (
		gateSelf, routerSelf, backendDur, backendFirst, skew []float64
		edgeSelf, clientSelf, nodeSelf, firstEmit            []float64
		publish, minq, hold, sdkHit, sdkMiss                 []float64
		fanout, routedQueries, rejected                      int
		backendItems, forwardedItems, emitItems, edgeItems   int
		emitNs, edgeBytes                                    int64
		plans                                                = map[string]int{}
		feeds, emptyFeeds, feedChanges                       int
	)
	for i := range spans {
		s := &spans[i]
		d := s.dur()
		switch s.Name {
		case spanGate:
			gateSelf = append(gateSelf, ms(d-covered(kids[s.ID], s.Start, s.End))*1000)
			if s.Note != "200" {
				rejected++
			}
		case spanRouter:
			bs := kids[s.ID]
			routerSelf = append(routerSelf, ms(d-covered(bs, s.Start, s.End)))
			if len(bs) == 0 {
				continue
			}
			routedQueries++
			fanout += len(bs)
			lo, hi := bs[0].dur(), bs[0].dur()
			for _, c := range bs {
				lo, hi = min(lo, c.dur()), max(hi, c.dur())
			}
			if len(bs) > 1 && lo > 0 {
				skew = append(skew, float64(hi)/float64(lo))
			}
		case spanBackend:
			backendDur = append(backendDur, ms(d))
			backendItems += s.Items
			if s.Items > 0 {
				backendFirst = append(backendFirst, ms(s.First-s.Start))
			}
		case spanEdge:
			edgeSelf = append(edgeSelf, ms(d-covered(kids[s.ID], s.Start, s.End)))
			for _, c := range kids[s.ID] {
				if c.Emit > 0 {
					edgeBytes += s.Bytes
					edgeItems += c.Items
				}
			}
		case spanNode:
			nodeSelf = append(nodeSelf, ms(d-s.Emit))
			emitNs += s.Emit
			if s.Emit > 0 {
				emitItems += s.Items
			}
			if s.Items > 0 && s.First > 0 {
				firstEmit = append(firstEmit, ms(s.First-s.Start))
			}
			plans[s.Note]++
		case spanPublish:
			publish = append(publish, ms(d))
		case spanMinQ:
			minq = append(minq, ms(d))
		case spanFeed:
			feeds++
			hold = append(hold, ms(d))
			feedChanges += s.Items
			if s.Items == 0 {
				emptyFeeds++
			}
		case spanClient:
			var server []*span
			miss := false
			for _, c := range kids[s.ID] {
				switch c.Name {
				case spanGate, spanEdge:
					server = append(server, c)
				case spanMinQ:
					miss = true
				}
			}
			if len(server) > 0 {
				clientSelf = append(clientSelf, ms(d-covered(server, s.Start, s.End)))
				if server[0].Name == spanGate {
					forwardedItems += s.Items
				}
			}
			if s.Note == clsLookup && len(server) == 0 {
				if miss {
					sdkMiss = append(sdkMiss, ms(d))
				} else {
					sdkHit = append(sdkHit, ms(d)*1000)
				}
			}
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]metric{
		"tenant.self_us_p50":              {pct(gateSelf, 0.5), "us"},
		"tenant.rejected":                 {float64(rejected), "count"},
		"shard.self_ms_p50":               {pct(routerSelf, 0.5), "ms"},
		"shard.backend_ms_p50":            {pct(backendDur, 0.5), "ms"},
		"shard.backend_ms_p99":            {pct(backendDur, 0.99), "ms"},
		"shard.backend_first_item_ms_p50": {pct(backendFirst, 0.5), "ms"},
		"shard.skew_p90":                  {pct(skew, 0.9), "ratio"},
		"shard.fanout_mean":               {ratio(float64(fanout), float64(routedQueries)), "count"},
		"shard.useful_item_ratio":         {ratio(float64(forwardedItems), float64(backendItems)), "ratio"},
		"wsda.edge_self_ms_p50":           {pct(edgeSelf, 0.5), "ms"},
		"wsda.emit_us_per_item":           {ratio(float64(emitNs)/1e3, float64(emitItems)), "us"},
		"wsda.bytes_per_item":             {ratio(float64(edgeBytes), float64(edgeItems)), "B"},
		"wsda.client_ms_p50":              {pct(clientSelf, 0.5), "ms"},
		"registry.query_self_ms_p50":      {pct(nodeSelf, 0.5), "ms"},
		"registry.query_self_ms_p99":      {pct(nodeSelf, 0.99), "ms"},
		"registry.first_emit_ms_p50":      {pct(firstEmit, 0.5), "ms"},
		"registry.plan_index":             {float64(plans["index"]), "count"},
		"registry.plan_scan":              {float64(plans["scan"]), "count"},
		"registry.plan_view":              {float64(plans["view"]), "count"},
		"registry.publish_ms_p50":         {pct(publish, 0.5), "ms"},
		"registry.publish_ms_p99":         {pct(publish, 0.99), "ms"},
		"registry.minquery_ms_p50":        {pct(minq, 0.5), "ms"},
		"changefeed.hold_ms_p50":          {pct(hold, 0.5), "ms"},
		"changefeed.changes_per_response": {ratio(float64(feedChanges), float64(feeds)), "count"},
		"changefeed.empty_ratio":          {ratio(float64(emptyFeeds), float64(feeds)), "ratio"},
		"sdk.hit_ratio":                   {ratio(float64(sdkD.Hits), float64(sdkD.Hits+sdkD.Misses)), "ratio"},
		"sdk.hit_us_p50":                  {pct(sdkHit, 0.5), "us"},
		"sdk.miss_ms_p50":                 {pct(sdkMiss, 0.5), "ms"},
		"sdk.invalidations_per_write":     {ratio(float64(sdkD.Invalidations), float64(writes)), "count"},
		"sdk.cold_drops":                  {float64(sdkD.ColdDrops), "count"},
	}
}

// ---- host fingerprint --------------------------------------------------

// fingerprint names the host and the code a result came from: CPU model,
// CPU count, GOMAXPROCS, Go version, and the commit (from the build's VCS
// stamp) or, outside a git checkout, a digest of the Go sources.
func fingerprint() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "source-sha256:" + sourceDigest()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// hostRef times a fixed piece of single-threaded CPU work, SHA-256 over
// 8 MiB, and returns the median of five in milliseconds. It is printed
// before and after the measured phases, not gated: when two runs of the
// same program disagree, it shows whether the core itself ran slower.
func hostRef() float64 {
	buf := make([]byte, 8<<20)
	var ms []float64
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		sha256.Sum256(buf)
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms)
}

// sourceDigest hashes every .go file under the working directory's
// internal/ and e2ebench/ trees, in path order.
func sourceDigest() string {
	var paths []string
	for _, root := range []string{"internal", "e2ebench"} {
		_ = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				paths = append(paths, p)
			}
			return nil
		})
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
