package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"wsda/internal/tuple"
	"wsda/internal/workload"
	"wsda/internal/wsda"
	"wsda/internal/xmldoc"
	"wsda/internal/xq"
)

// model is the benchmark's own record of every tuple it published: the
// oracle every response is checked against. Identity fields (link, name,
// domain, kind, disk) never change; churn republishes change only the
// load and uptime attributes, and every version ever published for a link
// stays acceptable, because a cache may lawfully serve an older one.
type model struct {
	svcs   []*wsda.Service
	byLink map[string]int
	groups [][]int // (domain, kind) group -> member indices, in link order
	group  []int   // index -> its group

	mu       sync.Mutex
	versions []map[string]bool // index -> signatures of every published version
	gone     []window          // index -> latest unpublish..republish window
	latest   []*tuple.Tuple    // index -> last recorded churn version (nil = original)
	opened   int               // unpublish windows opened so far
	open     int               // unpublish windows open now
}

// window is an interval during which a link may be absent: from the start
// of its unpublish to the acknowledgement of its republish (end 0 = open).
type window struct{ start, end time.Time }

// newModel generates n services from the seeded workload generator.
func newModel(seed int64, n int) *model {
	gen := workload.NewGen(seed)
	m := &model{
		svcs:     make([]*wsda.Service, n),
		byLink:   make(map[string]int, n),
		group:    make([]int, n),
		versions: make([]map[string]bool, n),
		gone:     make([]window, n),
		latest:   make([]*tuple.Tuple, n),
	}
	groupOf := map[string]int{}
	for i := 0; i < n; i++ {
		s := gen.Service(i)
		m.svcs[i] = s
		m.byLink[s.Link] = i
		m.versions[i] = map[string]bool{signature(s.Attributes): true}
		gk := s.Domain + "\x00" + s.Attributes["kind"]
		g, ok := groupOf[gk]
		if !ok {
			g = len(m.groups)
			groupOf[gk] = g
			m.groups = append(m.groups, nil)
		}
		m.group[i] = g
		m.groups[g] = append(m.groups[g], i)
	}
	for _, members := range m.groups {
		sort.Slice(members, func(a, b int) bool { return m.svcs[members[a]].Link < m.svcs[members[b]].Link })
	}
	return m
}

// signature identifies one published version by its attributes.
func signature(attrs map[string]string) string {
	return attrs["load"] + "|" + attrs["uptime"] + "|" + attrs["diskGB"] + "|" + attrs["cpus"]
}

func serviceTuple(s *wsda.Service) *tuple.Tuple {
	return &tuple.Tuple{Link: s.Link, Type: tuple.TypeService, Context: "child", Owner: s.Owner, Content: s.ToXML()}
}

// tuple returns the originally published tuple of index i.
func (m *model) tuple(i int) *tuple.Tuple { return serviceTuple(m.svcs[i]) }

// newVersion derives changed load and uptime attributes for index i from
// r, records the version as published, and returns its tuple and
// signature. It is recorded before the write is sent, so a reader racing
// the write accepts it.
func (m *model) newVersion(i int, r uint64) (*tuple.Tuple, string) {
	s := *m.svcs[i]
	s.Attributes = make(map[string]string, len(m.svcs[i].Attributes))
	for k, v := range m.svcs[i].Attributes {
		s.Attributes[k] = v
	}
	s.Attributes["load"] = fmt.Sprintf("%.2f", float64(r%100)/100)
	s.Attributes["uptime"] = strconv.FormatUint(1_000_000+(r>>8)%1_000_000_000, 10)
	sig := signature(s.Attributes)
	t := serviceTuple(&s)
	m.mu.Lock()
	m.versions[i][sig] = true
	m.latest[i] = t
	m.mu.Unlock()
	return t, sig
}

// current returns the most recently recorded version of index i.
func (m *model) current(i int) *tuple.Tuple {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.latest[i]; t != nil {
		return t
	}
	return m.tuple(i)
}

func (m *model) markGone(i int, start time.Time) {
	m.mu.Lock()
	m.gone[i] = window{start: start}
	m.opened++
	m.open++
	m.mu.Unlock()
}

func (m *model) markBack(i int, end time.Time) {
	m.mu.Lock()
	m.gone[i].end = end
	m.open--
	m.mu.Unlock()
}

// cycleMark returns how many unpublish windows have been opened so far
// and how many are open now. The windows that overlap a read are those
// open when it starts plus those opened before it ends.
func (m *model) cycleMark() (opened, open int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.opened, m.open
}

// mayBeAbsent reports whether link i could lawfully be missing from a
// read that ran over [from, to].
func (m *model) mayBeAbsent(i int, from, to time.Time) bool {
	m.mu.Lock()
	w := m.gone[i]
	m.mu.Unlock()
	return !w.start.IsZero() && !w.start.After(to) && (w.end.IsZero() || !w.end.Before(from))
}

func (m *model) published(i int, sig string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.versions[i][sig]
}

// ---- queries -----------------------------------------------------------

func lookupQuery(link string) string {
	return `/tupleset/tuple[@link="` + link + `"]`
}

// groupQuery selects the tuples of one (domain, kind) group.
func (m *model) groupQuery(g int) string {
	s := m.svcs[m.groups[g][0]]
	return `/tupleset/tuple[content/service/@domain="` + s.Domain +
		`"][content/service/attr[@name="kind"]/@value="` + s.Attributes["kind"] + `"]`
}

// analyzeIDs are the canonical buffered queries the analyze class runs.
var analyzeIDs = []string{"Q6", "Q7", "Q10"}

func analyzeQuery(id string) string {
	for _, q := range workload.CanonicalQueries {
		if q.ID == id {
			return q.XQ
		}
	}
	panic("unknown canonical query " + id)
}

// ---- checks ------------------------------------------------------------

// serviceOf returns the <service> element of a tuple element or of a
// tuple's content.
func serviceOf(n *xmldoc.Node) *xmldoc.Node {
	if n == nil {
		return nil
	}
	if n.Kind == xmldoc.DocumentNode {
		n = n.DocumentElement()
	}
	if n == nil {
		return nil
	}
	if n.LocalName() == "service" {
		return n
	}
	if c := n.FirstChildElement("content"); c != nil {
		return c.FirstChildElement("service")
	}
	return nil
}

func serviceAttrs(svc *xmldoc.Node) map[string]string {
	attrs := map[string]string{}
	for _, a := range svc.ChildElements() {
		if a.LocalName() == "attr" {
			k, _ := a.Attr("name")
			v, _ := a.Attr("value")
			attrs[k] = v
		}
	}
	return attrs
}

// checkContent verifies that content is a published version of index i.
func (m *model) checkContent(i int, content *xmldoc.Node) error {
	svc := serviceOf(content)
	if svc == nil {
		return fmt.Errorf("tuple %s: no service content", m.svcs[i].Link)
	}
	if name, _ := svc.Attr("name"); name != m.svcs[i].Name {
		return fmt.Errorf("tuple %s: service name %q, want %q", m.svcs[i].Link, name, m.svcs[i].Name)
	}
	if sig := signature(serviceAttrs(svc)); !m.published(i, sig) {
		return fmt.Errorf("tuple %s: version %s was never published", m.svcs[i].Link, sig)
	}
	return nil
}

// checkTupleItem verifies one returned <tuple> element and returns the
// index of its link.
func (m *model) checkTupleItem(it xq.Item) (int, error) {
	n, ok := it.(*xmldoc.Node)
	if !ok {
		return -1, fmt.Errorf("item %T is not a node", it)
	}
	if n.Kind == xmldoc.DocumentNode {
		n = n.DocumentElement()
	}
	if n == nil || n.LocalName() != "tuple" {
		return -1, fmt.Errorf("item is not a <tuple> element")
	}
	link, _ := n.Attr("link")
	i, ok := m.byLink[link]
	if !ok {
		return -1, fmt.Errorf("unknown link %q", link)
	}
	return i, m.checkContent(i, n)
}

// checkLookup verifies a link lookup: exactly the tuple of index i.
func (m *model) checkLookup(i int, seq xq.Sequence) error {
	if len(seq) != 1 {
		return fmt.Errorf("lookup %s: %d items, want 1", m.svcs[i].Link, len(seq))
	}
	j, err := m.checkTupleItem(seq[0])
	if err != nil {
		return err
	}
	if j != i {
		return fmt.Errorf("lookup %s: got %s", m.svcs[i].Link, m.svcs[j].Link)
	}
	return nil
}

// checkGroup verifies a listing or first-k answer for group g. With
// exact set, the answer must be the whole group (a complete listing);
// otherwise it must be `want` distinct members of the group (first-k).
func (m *model) checkGroup(g int, seq xq.Sequence, exact bool, want int) error {
	seen, err := m.groupItems(g, seq)
	if err != nil {
		return err
	}
	if len(seen) != len(seq) {
		return fmt.Errorf("group %d: %d items, %d distinct", g, len(seq), len(seen))
	}
	size := len(m.groups[g])
	switch {
	case exact && len(seq) != size:
		return fmt.Errorf("group %d: %d items, want all %d", g, len(seq), size)
	case !exact && len(seq) != want:
		return fmt.Errorf("group %d: %d items, want %d", g, len(seq), want)
	}
	return nil
}

// checkWalk verifies a paged walk of group g under churn. Offset cursors
// over a changing set may skip or repeat an item at a page boundary, and
// a cycled tuple is missing while it is unpublished: each of the overlap
// unpublish windows that overlapped the walk can cost at most two members
// (itself and one skipped) and add at most one repeat. Every item must be
// a published version of a member, and the walk must have ended on a
// page without a next cursor (cursor is the pager's cursor after it).
func (m *model) checkWalk(g int, seq xq.Sequence, overlap int, cursor string) error {
	seen, err := m.groupItems(g, seq)
	if err != nil {
		return err
	}
	size := len(m.groups[g])
	switch {
	case cursor != "":
		return fmt.Errorf("group %d: walk stopped before the last page", g)
	case len(seen) < size-2*overlap:
		return fmt.Errorf("group %d: walk saw %d of %d members (%d unpublish windows overlapped it)", g, len(seen), size, overlap)
	case len(seq)-len(seen) > overlap:
		return fmt.Errorf("group %d: walk repeated %d items (%d unpublish windows overlapped it)", g, len(seq)-len(seen), overlap)
	}
	return nil
}

// groupItems checks that every item is a published version of a member
// of group g and returns the set of members seen.
func (m *model) groupItems(g int, seq xq.Sequence) (map[int]bool, error) {
	seen := map[int]bool{}
	for _, it := range seq {
		i, err := m.checkTupleItem(it)
		if err != nil {
			return nil, err
		}
		if m.group[i] != g {
			return nil, fmt.Errorf("group %d: item %s belongs to group %d", g, m.svcs[i].Link, m.group[i])
		}
		seen[i] = true
	}
	return seen, nil
}

// checkAnalyze recomputes Q6, Q7 or Q10 from the model. churned is the
// most tuples that may be missing at once (writers that unpublish); with
// churn the load attribute moves, so Q6 is checked for shape only.
func (m *model) checkAnalyze(id string, seq xq.Sequence, churned int) error {
	switch id {
	case "Q6":
		return m.checkQ6(seq, churned > 0)
	case "Q7":
		return m.checkQ7(seq, churned)
	case "Q10":
		return m.checkQ10(seq, churned)
	}
	return fmt.Errorf("no oracle for %s", id)
}

func num(s string) float64 {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

func (m *model) kindIndex(kind string) map[string]int {
	out := map[string]int{}
	for i, s := range m.svcs {
		if s.Attributes["kind"] == kind {
			out[s.Name] = i
		}
	}
	return out
}

// checkQ6: the names of the three least loaded compute elements, in
// load order; ties may come in any order.
func (m *model) checkQ6(seq xq.Sequence, churn bool) error {
	ces := m.kindIndex("compute-element")
	if len(seq) != 3 {
		return fmt.Errorf("Q6: %d items, want 3", len(seq))
	}
	var got []float64
	seen := map[string]bool{}
	for _, it := range seq {
		name := xq.StringValue(it)
		i, ok := ces[name]
		if !ok || seen[name] {
			return fmt.Errorf("Q6: %q is not a distinct compute element", name)
		}
		seen[name] = true
		got = append(got, num(m.svcs[i].Attributes["load"]))
	}
	if churn {
		return nil
	}
	var loads []float64
	for _, i := range ces {
		loads = append(loads, num(m.svcs[i].Attributes["load"]))
	}
	sort.Float64s(loads)
	for k := range got {
		if got[k] != loads[k] {
			return fmt.Errorf("Q6: item %d has load %v, want %v", k, got[k], loads[k])
		}
	}
	return nil
}

// checkQ7: the storage elements with more than 1000 GB, by disk
// descending; ties may come in any order.
func (m *model) checkQ7(seq xq.Sequence, churned int) error {
	want := map[string]int{}
	for name, i := range m.kindIndex("storage-element") {
		if num(m.svcs[i].Attributes["diskGB"]) > 1000 {
			want[name] = i
		}
	}
	prev := math.Inf(1)
	seen := map[string]bool{}
	for _, it := range seq {
		name := xq.StringValue(it)
		i, ok := want[name]
		if !ok || seen[name] {
			return fmt.Errorf("Q7: %q is not a distinct matching storage element", name)
		}
		seen[name] = true
		d := num(m.svcs[i].Attributes["diskGB"])
		if d > prev {
			return fmt.Errorf("Q7: %q out of disk order", name)
		}
		prev = d
	}
	if len(seq) > len(want) || len(seq) < len(want)-churned {
		return fmt.Errorf("Q7: %d items, want %d", len(seq), len(want))
	}
	return nil
}

// checkQ10: one <summary> of the file-transfer services.
func (m *model) checkQ10(seq xq.Sequence, churned int) error {
	if len(seq) != 1 {
		return fmt.Errorf("Q10: %d items, want 1", len(seq))
	}
	n, ok := seq[0].(*xmldoc.Node)
	if ok && n.Kind == xmldoc.DocumentNode {
		n = n.DocumentElement()
	}
	if !ok || n == nil || n.LocalName() != "summary" {
		return fmt.Errorf("Q10: item is not a <summary> element")
	}
	domains := map[string]bool{}
	var services int
	var total, maxDisk float64
	for _, i := range m.kindIndex("file-transfer") {
		services++
		domains[m.svcs[i].Domain] = true
		d := num(m.svcs[i].Attributes["diskGB"])
		total += d
		maxDisk = max(maxDisk, d)
	}
	gs, _ := n.Attr("services")
	gd, _ := n.Attr("domains")
	gt, _ := n.Attr("totalDiskGB")
	gotS, gotT := num(gs), num(gt)
	missing := float64(services) - gotS
	switch {
	case missing < 0 || missing > float64(churned):
		return fmt.Errorf("Q10: services=%s, want %d", gs, services)
	case num(gd) != float64(len(domains)) && churned == 0:
		return fmt.Errorf("Q10: domains=%s, want %d", gd, len(domains))
	case math.Abs(gotT-total) > 0.5 && (churned == 0 || gotT > total+0.5 || gotT < total-missing*maxDisk-0.5):
		return fmt.Errorf("Q10: totalDiskGB=%s, want %.0f", gt, total)
	}
	return nil
}
