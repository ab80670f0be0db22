package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"wsda/internal/sdk"
	"wsda/internal/wsda"
)

// tiny returns a copy of a workload with a small population and rate, so
// a whole run takes a few seconds.
func tiny(t *testing.T, name string) *workloadSpec {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			c := *w
			c.tuples = 256
			c.rate = 20
			return &c
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}

// TestTinyRunsAreCorrect runs every workload on a tiny population, untraced
// and traced, and expects every checked response to pass the oracle.
func TestTinyRunsAreCorrect(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			t.Run(w.name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				dir := t.TempDir()
				s, err := run(tiny(t, w.name), 7, 2*time.Second, traced, 2, dir)
				if err != nil {
					t.Fatal(err)
				}
				if s.Attempted == 0 || s.Failed != 0 || !s.Correct {
					t.Fatalf("attempted %d failed %d correct %v", s.Attempted, s.Failed, s.Correct)
				}
				want := reportedE2E
				if traced {
					want = reportedLayer
					if _, err := os.Stat(filepath.Join(dir, "spans-"+w.name+"-seed7.jsonl")); err != nil {
						t.Fatalf("span file: %v", err)
					}
					if s.Metrics["sdk.cold_drops"].Value != 0 || s.Metrics["tenant.rejected"].Value != 0 {
						t.Fatalf("cold drops %v, gate rejections %v", s.Metrics["sdk.cold_drops"], s.Metrics["tenant.rejected"])
					}
				}
				if len(s.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d", len(s.Metrics), len(want))
				}
				for _, k := range want {
					if _, ok := s.Metrics[k]; !ok {
						t.Fatalf("metric %s missing", k)
					}
				}
			})
		}
	}
}

// TestMoreWorkersThanProbeLinks runs churn-sdk with more workers than a
// population's default share of probe links would give, and expects the
// probe reservation to grow so that every worker owns links of its own.
func TestMoreWorkersThanProbeLinks(t *testing.T) {
	w := tiny(t, "churn-sdk")
	s, err := run(w, 11, 2*time.Second, false, 8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if s.Attempted == 0 || s.Failed != 0 || !s.Correct {
		t.Fatalf("attempted %d failed %d correct %v", s.Attempted, s.Failed, s.Correct)
	}
	if _, err := boot(w, newModel(11, w.tuples), w.tuples, nil); err == nil {
		t.Fatal("a population with fewer than two probe links per worker was accepted")
	}
}

// loadCorruption rewrites the first load attribute of a response body.
func loadCorruption(body string) string {
	return strings.Replace(body, `name="load" value="`, `name="load" value="9`, 1)
}

// cursorCut drops the next cursor from a page's summary, so a pager
// stops after the first page.
func cursorCut(body string) string {
	return regexp.MustCompile(` next-cursor="[^"]*"`).ReplaceAllString(body, "")
}

// corruptingProxy forwards to target and rewrites every response body
// with corrupt, the way a broken layer would.
func corruptingProxy(t *testing.T, target string, corrupt func(string) string) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		u, _ := url.Parse(target + r.URL.RequestURI())
		req, err := http.NewRequest(r.Method, u.String(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		body = []byte(corrupt(string(body)))
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(body)
	}))
}

// TestCorruptedAnswerCountsAsFailed serves one answer of every read kind
// through a proxy that corrupts it and expects each to count as failed.
func TestCorruptedAnswerCountsAsFailed(t *testing.T) {
	w := tiny(t, "large-registry")
	m := newModel(3, w.tuples)
	b, err := boot(w, m, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	proxy := corruptingProxy(t, b.st.edge, loadCorruption)
	defer proxy.Close()

	// The same operations pass against the real edge ...
	ops := []op{{kind: opLookup, i: 5}, {kind: opList, g: 3}, {kind: opFirstK, g: 4}, {kind: opAnalyze, q: 2}}
	for _, o := range ops {
		if out := b.exec(0, o); out.err != nil {
			t.Fatalf("kind %d against the real edge: %v", o.kind, out.err)
		}
	}
	// ... and fail through the corrupting proxy. Q10 carries no load
	// attribute, so its answer is corrupted by unpublishing a counted tuple.
	b.wc = wsda.NewClient(proxy.URL)
	s := newSamples()
	for _, o := range ops[:3] {
		out := b.exec(0, o)
		if out.err == nil {
			t.Fatalf("kind %d: corrupted answer passed the oracle", o.kind)
		}
		s.add(o, time.Now(), time.Now(), out)
	}
	var ft int
	for i, svc := range m.svcs {
		if svc.Attributes["kind"] == "file-transfer" {
			ft = i
			break
		}
	}
	if err := wsda.NewClient(b.st.edge).Unpublish(m.svcs[ft].Link); err != nil {
		t.Fatal(err)
	}
	b.wc = wsda.NewClient(b.st.edge)
	out := b.exec(0, ops[3])
	if out.err == nil {
		t.Fatal("Q10 over a missing tuple passed the oracle")
	}
	s.add(ops[3], time.Now(), time.Now(), out)

	// A paged walk cut short after its first page. The groups of 2,048
	// tuples are larger than a page.
	cw := tiny(t, "churn-sdk")
	cw.tuples = 2048
	cm := newModel(3, cw.tuples)
	cb, err := boot(cw, cm, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.close()
	walk := op{kind: opPagedList}
	for g := range cm.groups {
		if len(cm.groups[g]) > len(cm.groups[walk.g]) {
			walk.g = g
		}
	}
	if len(cm.groups[walk.g]) <= pageSize {
		t.Fatalf("largest group holds %d tuples, not more than a page", len(cm.groups[walk.g]))
	}
	if out := cb.exec(0, walk); out.err != nil {
		t.Fatalf("paged walk against the real edge: %v", out.err)
	}
	cut := corruptingProxy(t, cb.st.edge, cursorCut)
	defer cut.Close()
	armed := cb.sdk
	if cb.sdk, err = sdk.New(sdk.Config{Origin: cut.URL, Log: discard}); err != nil {
		t.Fatal(err)
	}
	out = cb.exec(0, walk)
	cb.sdk = armed
	if out.err == nil {
		t.Fatal("a paged walk cut after its first page passed the oracle")
	}
	s.add(walk, time.Now(), time.Now(), out)
	if s.attempted != 5 || s.failed != 5 {
		t.Fatalf("attempted %d failed %d, want 5 and 5", s.attempted, s.failed)
	}
}

func TestCovered(t *testing.T) {
	kids := []*span{{Start: 10, End: 20}, {Start: 15, End: 30}, {Start: 40, End: 50}, {Start: 55, End: 70}}
	if got := covered(kids, 0, 60); got != 20+10+5 {
		t.Fatalf("covered = %d, want 35", got)
	}
}
