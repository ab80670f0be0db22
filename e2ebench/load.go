package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wsda/internal/registry"
	"wsda/internal/sdk"
	"wsda/internal/wsda"
	"wsda/internal/xq"
)

// opKind is one operation a discovery client performs.
type opKind int

const (
	opLookup     opKind = iota // link lookup over HTTP (lookup)
	opFirstK                   // first 5 matches of a group, max-results=5 (lookup)
	opList                     // full streamed listing of a group (list)
	opAnalyze                  // Q6/Q7/Q10, buffered (analyze)
	opSDKLookup                // Zipf-keyed sdk.Client.Lookup (lookup)
	opSDKAnalyze               // Q6/Q10 through the SDK result cache (analyze)
	opPagedList                // paged (size 25) walk of a group through the SDK (list)
	opRepublish                // publish a changed version (publish)
	opRefresh                  // heartbeat: republish the current version (publish)
	opCycle                    // unpublish, then republish (publish)
	opProbe                    // publish a change, poll the SDK until it shows (visibility)
)

// Op classes: the latency families the end-to-end metrics report.
const (
	clsLookup     = "lookup"
	clsList       = "list"
	clsAnalyze    = "analyze"
	clsPublish    = "publish"
	clsVisibility = "visibility"
)

var classOf = map[opKind]string{
	opLookup: clsLookup, opFirstK: clsLookup, opSDKLookup: clsLookup,
	opList: clsList, opPagedList: clsList,
	opAnalyze: clsAnalyze, opSDKAnalyze: clsAnalyze,
	opRepublish: clsPublish, opRefresh: clsPublish, opCycle: clsPublish,
	opProbe: clsVisibility,
}

var classes = []string{clsLookup, clsList, clsAnalyze, clsPublish, clsVisibility}

// firstK is the result bound of the first-k lookup.
const firstK = 5

// pageSize is the page size of the SDK's paged listing walk.
const pageSize = 25

// maxProbeStride reserves every 64th tuple for visibility probes: churn
// writes never touch them, so a probe's own write is the only one it can
// observe.
const maxProbeStride = 64

// probeStride returns the stride of the tuples reserved for probes: every
// 64th, or closer on a small population, so that each of the nproc
// workers owns at least two probe links. It is 0 when the population is
// too small for that.
func probeStride(tuples, nproc int) int {
	if s := min(maxProbeStride, tuples/(2*nproc)); s >= 2 {
		return s
	}
	return 0
}

// op is one drawn operation: its kind and the inputs it runs on.
type op struct {
	kind opKind
	i    int    // tuple index
	g    int    // group index
	q    int    // analyze query index
	r    uint64 // randomness for written attributes
}

// outcome is what one executed operation produced.
type outcome struct {
	first   time.Time     // first result item received (listings)
	end     time.Time     // operation complete
	visible time.Duration // probe: write acknowledgement to SDK read
	err     error         // transport error or oracle mismatch
}

// bench is one booted workload: the stack, its oracle and its clients.
type bench struct {
	w      *workloadSpec
	m      *model
	st     *stack
	wc     *wsda.Client // load-generator client of the public edge
	sdk    *sdk.Client  // churn-sdk readers; nil otherwise
	tr     *tracer
	nproc  int
	probe  []int // indices reserved for visibility probes
	stride int   // every stride-th index is reserved (probeStride)
	txSeq  atomic.Int64
}

// newLoadClient returns the load generator's HTTP client: the shared
// transport's settings, capped at nproc connections to the edge.
func newLoadClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:           (&net.Dialer{Timeout: wsda.DialTimeout, KeepAlive: 30 * time.Second}).DialContext,
		ResponseHeaderTimeout: wsda.ResponseHeaderTimeout,
		MaxIdleConns:          conns,
		MaxIdleConnsPerHost:   conns,
		MaxConnsPerHost:       conns,
		IdleConnTimeout:       wsda.IdleConnTimeout,
	}}
}

func (b *bench) tx() string { return "e2e-" + strconv.FormatInt(b.txSeq.Add(1), 10) }

// exec runs one operation on the given worker and checks its answer.
func (b *bench) exec(worker int, o op) outcome {
	tx := b.tx()
	start := time.Now()
	var out outcome
	items := 0
	onFirst := func() {
		if out.first.IsZero() {
			out.first = time.Now()
		}
	}
	opts := registry.QueryOptions{TxID: tx}
	m := b.m
	switch o.kind {
	case opLookup:
		seq, err := b.wc.XQuery(lookupQuery(m.svcs[o.i].Link), opts)
		items = len(seq)
		out.err = firstErr(err, func() error { return m.checkLookup(o.i, seq) })
	case opFirstK, opList:
		limit := 0
		if o.kind == opFirstK {
			limit = firstK
		}
		var seq xq.Sequence
		sum, err := b.wc.XQueryStream(m.groupQuery(o.g), opts, limit, func(it xq.Item) bool {
			onFirst()
			seq = append(seq, it)
			return true
		})
		items = len(seq)
		out.err = firstErr(err, func() error {
			if o.kind == opFirstK {
				return m.checkGroup(o.g, seq, false, min(firstK, len(m.groups[o.g])))
			}
			if sum == nil || !sum.Complete {
				return fmt.Errorf("listing of group %d: summary not complete", o.g)
			}
			return m.checkGroup(o.g, seq, true, 0)
		})
	case opAnalyze, opSDKAnalyze:
		id := analyzeIDs[o.q]
		var seq xq.Sequence
		var err error
		churned := 0
		if o.kind == opSDKAnalyze {
			seq, err = b.sdk.XQuery(analyzeQuery(id), opts)
			churned = b.nproc
		} else {
			seq, err = b.wc.XQuery(analyzeQuery(id), opts)
		}
		items = len(seq)
		out.err = firstErr(err, func() error { return m.checkAnalyze(id, seq, churned) })
	case opSDKLookup:
		t, found, err := b.sdk.Lookup(m.svcs[o.i].Link)
		out.err = firstErr(err, func() error {
			if !found {
				if m.mayBeAbsent(o.i, start, time.Now()) {
					return nil
				}
				return fmt.Errorf("sdk lookup %s: not found", m.svcs[o.i].Link)
			}
			items = 1
			return m.checkContent(o.i, t.Content)
		})
	case opPagedList:
		var seq xq.Sequence
		opened0, open0 := m.cycleMark()
		p := b.sdk.Pages(m.groupQuery(o.g), opts, pageSize)
		for p.Next() {
			if len(p.Items()) > 0 {
				onFirst()
			}
			seq = append(seq, p.Items()...)
		}
		opened1, _ := m.cycleMark()
		items = len(seq)
		out.err = firstErr(p.Err(), func() error {
			return m.checkWalk(o.g, seq, open0+opened1-opened0, p.Cursor())
		})
	case opRepublish:
		t, _ := m.newVersion(o.i, o.r)
		_, out.err = b.wc.Publish(t, tupleTTL)
	case opRefresh:
		_, out.err = b.wc.Publish(m.current(o.i), tupleTTL)
	case opCycle:
		m.markGone(o.i, time.Now())
		out.err = b.wc.Unpublish(m.svcs[o.i].Link)
		if out.err == nil {
			_, out.err = b.wc.Publish(m.current(o.i), tupleTTL)
		}
		m.markBack(o.i, time.Now())
	case opProbe:
		// Worker w only probes slots j with j%nproc == w, so no two probes
		// ever write the same link at once.
		slots := uint64(len(b.probe) / b.nproc)
		o.i = b.probe[int(o.r%slots)*b.nproc+worker]
		out.visible, out.err = b.probeVisibility(o.i, o.r)
	}
	out.end = time.Now()
	if b.tr != nil {
		sp := span{Name: spanClient, Tx: tx, Start: int64(start.Sub(b.tr.t0)), End: int64(out.end.Sub(b.tr.t0)),
			Items: items, Note: classOf[o.kind]}
		if o.kind == opSDKLookup || o.kind >= opRepublish {
			sp.Tx = m.svcs[o.i].Link
		}
		if !out.first.IsZero() {
			sp.First = int64(out.first.Sub(b.tr.t0))
		}
		b.tr.record(sp)
	}
	return out
}

// probeVisibility publishes a changed version of index i and polls the
// SDK (at most one read per half millisecond) until it returns that
// version, reporting the time from write acknowledgement to visibility.
func (b *bench) probeVisibility(i int, r uint64) (time.Duration, error) {
	t, sig := b.m.newVersion(i, r)
	if _, err := b.wc.Publish(t, tupleTTL); err != nil {
		return 0, err
	}
	acked := time.Now()
	deadline := acked.Add(5 * time.Second)
	for {
		got, found, err := b.sdk.Lookup(t.Link)
		if err != nil {
			return 0, err
		}
		if found {
			if svc := serviceOf(got.Content); svc != nil && signature(serviceAttrs(svc)) == sig {
				return time.Since(acked), nil
			}
			if err := b.m.checkContent(i, got.Content); err != nil {
				return 0, err
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("probe %s: write not visible through the SDK after 5s", t.Link)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func firstErr(err error, check func() error) error {
	if err != nil {
		return err
	}
	return check()
}

// ---- drawing operations ------------------------------------------------

// drawer turns a seeded random stream into the workload's operations.
// The kinds follow a fixed block that holds each kind exactly as often as
// the mix says, spread evenly (smooth weighted round robin): every run
// and every seed carries the same mix in the same rhythm, with no chance
// run of heavy operations, and the seed picks the keys, groups, queries
// and written values.
type drawer struct {
	w      *workloadSpec
	m      *model
	rng    *rand.Rand
	stride int       // probe reservation stride (probeStride)
	zipf   []float64 // cumulative Zipf weights by rank
	perm   []int     // Zipf rank -> tuple index, so hot keys spread over the key space
	block  []opKind
	pos    int
	// groups is a seeded order of the groups that each group-reading kind
	// cycles through (gpos per kind): a group's first match sits deeper or
	// shallower in the link-ordered scan, so drawing groups at random would
	// make the mix of listing costs differ from run to run. The analyze
	// kinds cycle through their queries the same way.
	groups []int
	gpos   map[opKind]int
}

// mixBlock interleaves the mix's kinds evenly over one block.
func mixBlock(mix []share) []opKind {
	total := 0
	for _, s := range mix {
		total += s.n
	}
	cur := make([]int, len(mix))
	block := make([]opKind, 0, total)
	for len(block) < total {
		best := 0
		for k, s := range mix {
			cur[k] += s.n
			if cur[k] > cur[best] {
				best = k
			}
		}
		cur[best] -= total
		block = append(block, mix[best].kind)
	}
	return block
}

func (b *bench) newDrawer(seed int64) *drawer {
	rng := rand.New(rand.NewSource(seed))
	n := len(b.m.svcs)
	return &drawer{w: b.w, m: b.m, rng: rng, stride: b.stride, zipf: zipfCDF(n), perm: rng.Perm(n),
		block: mixBlock(b.w.mix), groups: rng.Perm(len(b.m.groups)), gpos: map[opKind]int{}}
}

// zipfCDF returns the cumulative weights of Zipf's law over n ranks: rank
// k (from 0) is drawn with probability proportional to 1/(k+1), exponent
// 1. (math/rand's Zipf needs an exponent above 1.)
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / float64(k+1)
		cdf[k] = sum
	}
	return cdf
}

// zipfRank draws a rank from the Zipf weights.
func (d *drawer) zipfRank() int {
	u := d.rng.Float64() * d.zipf[len(d.zipf)-1]
	return min(sort.SearchFloat64s(d.zipf, u), len(d.zipf)-1)
}

// writable draws a tuple index that is not reserved for probes.
func (d *drawer) writable() int {
	i := d.rng.Intn(len(d.m.svcs))
	if i%d.stride == d.stride-1 {
		i--
	}
	return i
}

func (d *drawer) next() op {
	kind := d.block[d.pos%len(d.block)]
	d.pos++
	o := op{kind: kind, r: d.rng.Uint64()}
	switch kind {
	case opLookup:
		o.i = d.rng.Intn(len(d.m.svcs))
	case opSDKLookup:
		o.i = d.perm[d.zipfRank()]
	case opFirstK, opList, opPagedList:
		o.g = d.groups[d.gpos[kind]%len(d.groups)]
		d.gpos[kind]++
	case opAnalyze:
		o.q = d.gpos[kind] % len(analyzeIDs)
		d.gpos[kind]++
	case opSDKAnalyze:
		o.q = []int{0, 2}[d.gpos[kind]%2] // Q6 and Q10
		d.gpos[kind]++
	case opRepublish, opRefresh, opCycle:
		o.i = d.writable()
	}
	return o
}

// ---- loops -------------------------------------------------------------

// samples collects one phase's latencies in milliseconds, by class.
type samples struct {
	mu        sync.Mutex
	latency   map[string][]float64 // due -> complete
	first     []float64            // listings: due -> first item
	visible   []float64            // probes: acknowledgement -> visible
	lag       []float64            // due -> sent
	attempted int
	failed    int
	errs      []string
}

func newSamples() *samples {
	return &samples{latency: map[string][]float64{}}
}

func (s *samples) add(o op, due, sent time.Time, out outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if out.err != nil {
		s.failed++
		if len(s.errs) < 5 {
			s.errs = append(s.errs, out.err.Error())
		}
		return
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	cls := classOf[o.kind]
	s.lag = append(s.lag, ms(sent.Sub(due)))
	if cls == clsVisibility {
		s.visible = append(s.visible, ms(out.visible))
		return
	}
	s.latency[cls] = append(s.latency[cls], ms(out.end.Sub(due)))
	if cls == clsList && !out.first.IsZero() {
		s.first = append(s.first, ms(out.first.Sub(due)))
	}
}

// closedDrawers returns the closed loop's clients' operation streams,
// one per worker, each starting at a different point of the mix. They are
// drawn on across the loop's slices.
func (b *bench) closedDrawers(seed int64) []*drawer {
	ds := make([]*drawer, b.nproc)
	for w := range ds {
		ds[w] = b.newDrawer(seed*1000 + int64(w))
		ds[w].pos = w * len(ds[w].block) / b.nproc
	}
	return ds
}

// closedLoop runs one slice of the closed loop: nproc clients, each
// sending its next operation when the last returns, for d. It returns the
// correct operations completed after the slice's first warm, per second
// of CPU time the process used over the same span, and per wall second.
// The stack runs on one core and keeps it busy here (96-100% of the wall
// time on an idle host), so the first is the rate one core sustains; time
// the host gives its other tenants does not count.
func (b *bench) closedLoop(drawers []*drawer, d, warm time.Duration, s *samples) (perCPU, perWall float64) {
	stop := time.Now().Add(d)
	var from atomic.Int64 // wall clock (ns) at the end of the warm-up; 0 before
	var cpu0 time.Duration
	mark := func() {
		cpu0 = cpuTime()
		from.Store(time.Now().UnixNano())
	}
	if warm <= 0 {
		mark()
	} else {
		defer time.AfterFunc(warm, mark).Stop()
	}
	var counted atomic.Int64
	var wg sync.WaitGroup
	for w, dr := range drawers {
		wg.Add(1)
		go func(w int, dr *drawer) {
			defer wg.Done()
			for time.Now().Before(stop) {
				o := dr.next()
				t0 := time.Now()
				out := b.exec(w, o)
				s.add(o, t0, t0, out)
				if f := from.Load(); out.err == nil && f != 0 && out.end.UnixNano() >= f {
					counted.Add(1)
				}
			}
		}(w, dr)
	}
	wg.Wait()
	f := from.Load()
	if f == 0 {
		return 0, 0
	}
	n := float64(counted.Load())
	return n / (cpuTime() - cpu0).Seconds(), n / time.Since(time.Unix(0, f)).Seconds()
}

// openStream draws the open loop's n operations from the seeded stream.
func (b *bench) openStream(seed int64, n int) []op {
	dr := b.newDrawer(seed)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = dr.next()
	}
	return ops
}

// openLoop sends ops at the workload's fixed rate on nproc workers,
// whatever the system's pace: each operation is timed from its due time.
// It returns the backlog at the end: the median, over the last tenth of
// the dispatches, of the operations in flight (queued or running, the one
// just dispatched included) as each fell due. A growing backlog keeps it
// high; one slow operation at the very end does not.
func (b *bench) openLoop(ops []op, s *samples) int {
	n := len(ops)
	interval := time.Duration(float64(time.Second) / b.w.rate)
	t0 := time.Now().Add(5 * time.Millisecond)
	due := func(i int) time.Time { return t0.Add(time.Duration(i) * interval) }
	queue := make(chan int, n) // sized to every send: the dispatcher never blocks
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				sent := time.Now()
				out := b.exec(w, ops[i])
				s.add(ops[i], due(i), sent, out)
				done.Add(1)
			}
		}(w)
	}
	var tail []float64
	for i := range ops {
		time.Sleep(time.Until(due(i)))
		queue <- i
		if i >= n-1-n/10 {
			tail = append(tail, float64(i+1-int(done.Load())))
		}
	}
	close(queue)
	wg.Wait()
	return int(median(tail))
}

// warm renders what the workload's steady state keeps cached, so the
// measured phases do not pay lazy first-touch costs: every group is
// listed once (filling the rendered-tuple memo), the analyze queries run
// once (building the shared view), and with an SDK every tuple is looked
// up once (filling its cache).
func (b *bench) warm() error {
	if b.w.warmLists {
		for g := range b.m.groups {
			if _, err := b.wc.XQueryStream(b.m.groupQuery(g), registry.QueryOptions{}, 0, func(xq.Item) bool { return true }); err != nil {
				return fmt.Errorf("warm listing: %w", err)
			}
		}
	}
	for _, id := range b.w.warmAnalyze {
		if _, err := b.wc.XQuery(analyzeQuery(id), registry.QueryOptions{}); err != nil {
			return fmt.Errorf("warm %s: %w", id, err)
		}
	}
	if b.sdk == nil {
		return nil
	}
	return b.forEach(len(b.m.svcs), func(i int) error {
		if _, _, err := b.sdk.Lookup(b.m.svcs[i].Link); err != nil {
			return fmt.Errorf("warm SDK: %w", err)
		}
		return nil
	})
}

// forEach calls f for the indices 0..n-1 on nproc workers, worker w
// taking every nproc-th index from w, and returns the first error.
func (b *bench) forEach(n int, f func(i int) error) error {
	errs := make([]error, b.nproc)
	var wg sync.WaitGroup
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n && errs[w] == nil; i += b.nproc {
				errs[w] = f(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
