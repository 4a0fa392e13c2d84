package anomaly

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/history"
)

// Incident states.
const (
	StateOpen     = "open"
	StateResolved = "resolved"
)

// maxIncidentEventSeqs caps the per-incident journal-sequence timeline;
// EventCount keeps counting past it.
const maxIncidentEventSeqs = 64

// maxIncidentTraceIDs caps the per-incident trace references — enough to
// sample an episode's evolution without letting a long-running incident
// pin unbounded span-store slots.
const maxIncidentTraceIDs = 16

// Incident is one correlated anomaly episode: every diagnosis event
// whose verdict names the same root cause in the same place within a
// sliding window is folded into a single incident with a timeline,
// instead of paging the operator once per sweep.
type Incident struct {
	ID int64 `json:"id"`
	// State is open while events keep arriving; resolved once the
	// tenant's series stayed inside their bands for ResolveAfter.
	State string `json:"state"`
	// RootCause names what ran short: the Algorithm 2 root-cause element
	// when chains are diagnosed, otherwise the Algorithm 1 inferred
	// resource ("resource:memory-bandwidth"), otherwise the spiking
	// element itself. Events fold on it together with its scope (see
	// scopeOf): the top-drop machine of a stack verdict, narrowed to
	// the VM for a bottleneck, or a chain verdict's whole root-cause
	// set. So two incidents may share a RootCause.
	RootCause string `json:"root_cause"`
	// Machines are the machines the scope names, sorted: what tells two
	// incidents of one resource on different machines apart.
	Machines []core.MachineID `json:"machines,omitempty"`
	// Tenants and Elements accumulate everything the episode touched.
	// More than one tenant means one problem in shared infrastructure.
	Tenants  []core.TenantID  `json:"tenants"`
	Elements []core.ElementID `json:"elements"`
	// FirstSeen/LastSeen bound the timeline in record-clock ns;
	// ResolvedAt is set when the incident closes.
	FirstSeen  int64 `json:"first_seen"`
	LastSeen   int64 `json:"last_seen"`
	ResolvedAt int64 `json:"resolved_at,omitempty"`
	// EventSeqs are the journal sequence numbers of the member events
	// (capped at maxIncidentEventSeqs); EventCount is uncapped.
	EventSeqs  []int64 `json:"event_seqs"`
	EventCount int     `json:"event_count"`
	// TraceIDs are the distributed traces referenced by member events
	// (deduplicated, capped at maxIncidentTraceIDs) — the queries or
	// push frames whose records triggered them, retrievable from the
	// span store as skew-corrected waterfalls.
	TraceIDs []uint64 `json:"trace_ids,omitempty"`
	// Summary is the latest member event's verdict line.
	Summary string `json:"summary"`
	// DetectionNS is the opening event's detection latency: record-clock
	// time from the series' last known-good sample to the trigger.
	DetectionNS int64 `json:"detection_ns,omitempty"`

	key string // the fold key: RootCause plus its scope
}

// clone deep-copies the incident so correlator internals never escape.
func (in *Incident) clone() Incident {
	out := *in
	out.Machines = append([]core.MachineID(nil), in.Machines...)
	out.Tenants = append([]core.TenantID(nil), in.Tenants...)
	out.Elements = append([]core.ElementID(nil), in.Elements...)
	out.EventSeqs = append([]int64(nil), in.EventSeqs...)
	out.TraceIDs = append([]uint64(nil), in.TraceIDs...)
	return out
}

// CorrelatorConfig bounds incident grouping.
type CorrelatorConfig struct {
	// Window is the sliding correlation window: an event sharing an open
	// incident's root cause and scope within Window of its LastSeen joins
	// it; any later recurrence opens a fresh incident. Default 5m.
	Window time.Duration
	// ResolveAfter closes an open incident once no member event arrived
	// for this long (the series returned inside their bands). Default 1m.
	ResolveAfter time.Duration
	// MaxResolved bounds the retained resolved-incident history (oldest
	// evicted). Default 256.
	MaxResolved int
}

func (c CorrelatorConfig) withDefaults() CorrelatorConfig {
	if c.Window <= 0 {
		c.Window = 5 * time.Minute
	}
	if c.ResolveAfter <= 0 {
		c.ResolveAfter = time.Minute
	}
	if c.MaxResolved <= 0 {
		c.MaxResolved = 256
	}
	return c
}

// Correlator groups diagnosis events into incidents by root cause and
// scope. It is the one place that decides whether reports, from one
// tenant or several, are one problem. All methods are safe for
// concurrent use.
type Correlator struct {
	cfg CorrelatorConfig

	mu       sync.Mutex
	nextID   int64
	open     map[string]*Incident // fold key -> open incident
	resolved []*Incident          // ring, oldest first
}

// NewCorrelator builds a correlator (zero config fields take defaults).
func NewCorrelator(cfg CorrelatorConfig) *Correlator {
	return &Correlator{cfg: cfg.withDefaults(), open: make(map[string]*Incident)}
}

// Observe folds one diagnosis event into the incident sharing its root
// cause and scope, opening a new incident when none is open (or the open
// one's window lapsed — Tick resolves those, but a late burst after a
// long quiet gap must not reopen history). detectionNS is the event's
// detection latency, kept when it opens the incident. It returns the
// incident ID and whether this event opened it.
func (c *Correlator) Observe(ev *history.Event, detectionNS int64) (id int64, opened bool) {
	key, root, machines, elems := scopeOf(ev)
	ts := ev.TS
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.open[key]
	if in != nil && ts-in.LastSeen > int64(c.cfg.Window) {
		c.resolveLocked(in, in.LastSeen+int64(c.cfg.ResolveAfter))
		in = nil
	}
	if in == nil {
		c.nextID++
		in = &Incident{
			ID:          c.nextID,
			State:       StateOpen,
			RootCause:   root,
			Machines:    machines,
			FirstSeen:   ts,
			DetectionNS: detectionNS,
			key:         key,
		}
		c.open[key] = in
		opened = true
	}
	if ts > in.LastSeen {
		in.LastSeen = ts
	}
	in.Summary = ev.Summary
	in.EventCount++
	if len(in.EventSeqs) < maxIncidentEventSeqs {
		in.EventSeqs = append(in.EventSeqs, ev.Seq)
	}
	if ev.TraceID != 0 && len(in.TraceIDs) < maxIncidentTraceIDs && !containsTrace(in.TraceIDs, ev.TraceID) {
		in.TraceIDs = append(in.TraceIDs, ev.TraceID)
	}
	if !containsTenant(in.Tenants, ev.Tenant) {
		in.Tenants = append(in.Tenants, ev.Tenant)
		sort.Slice(in.Tenants, func(i, j int) bool { return in.Tenants[i] < in.Tenants[j] })
	}
	for _, e := range elems {
		if !containsElem(in.Elements, e) {
			in.Elements = append(in.Elements, e)
		}
	}
	sort.Slice(in.Elements, func(i, j int) bool { return in.Elements[i] < in.Elements[j] })
	return in.ID, opened
}

// scopeOf derives an event's fold key, its root-cause text, the machines
// the key names and the elements it touched. The key is the root cause
// plus where it is:
//   - a chain verdict: the sorted root-cause set, so {a, b} and {a} are
//     two problems;
//   - a stack verdict: the inferred resource on the machine of the
//     top-drop element (Ranked is ordered by loss, then ID, so the pick
//     is deterministic), narrowed to the VM for a bottleneck;
//   - otherwise the detected element itself.
func scopeOf(ev *history.Event) (key, root string, machines []core.MachineID, elems []core.ElementID) {
	elems = []core.ElementID{ev.Element}
	if c := ev.Chain; c != nil && len(c.RootCauses) > 0 {
		elems = append(elems, c.RootCauses...)
		set := make([]string, len(c.RootCauses))
		for i, id := range c.RootCauses {
			set[i] = string(id)
			machines = append(machines, id.Machine())
		}
		sort.Strings(set)
		slices.Sort(machines)
		return strings.Join(set, ","), string(c.RootCauses[0]), slices.Compact(machines), elems
	}
	if s := ev.Stack; s != nil && s.TotalLoss > 0 && len(s.Ranked) > 0 {
		for i, e := range s.Ranked {
			if i >= 8 || e.Loss == 0 {
				break
			}
			elems = append(elems, e.Element)
		}
		root = "resource:" + s.Inferred.String()
		m := s.Ranked[0].Element.Machine()
		where := string(m)
		if s.Scope == diagnosis.ScopeBottleneck {
			where += "/" + string(s.BottleneckVM)
		}
		return root + "@" + where, root, []core.MachineID{m}, elems
	}
	return string(ev.Element), string(ev.Element), []core.MachineID{ev.Element.Machine()}, elems
}

// Tick advances the correlator's clock: open incidents quiet for
// ResolveAfter move to resolved. It returns how many incidents resolved.
func (c *Correlator) Tick(now int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, in := range c.open {
		if now-in.LastSeen >= int64(c.cfg.ResolveAfter) {
			c.resolveLocked(in, now)
			n++
		}
	}
	return n
}

func (c *Correlator) resolveLocked(in *Incident, at int64) {
	in.State = StateResolved
	in.ResolvedAt = at
	delete(c.open, in.key)
	c.resolved = append(c.resolved, in)
	if len(c.resolved) > c.cfg.MaxResolved {
		c.resolved = c.resolved[len(c.resolved)-c.cfg.MaxResolved:]
	}
}

// Get returns a snapshot of one incident by ID.
func (c *Correlator) Get(id int64) (Incident, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, in := range c.open {
		if in.ID == id {
			return in.clone(), true
		}
	}
	for _, in := range c.resolved {
		if in.ID == id {
			return in.clone(), true
		}
	}
	return Incident{}, false
}

// List returns incident snapshots, newest first. state filters by
// lifecycle ("open", "resolved", "" = all); limit <= 0 means all.
func (c *Correlator) List(state string, limit int) []Incident {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Incident, 0, len(c.open)+len(c.resolved))
	if state != StateResolved {
		for _, in := range c.open {
			out = append(out, in.clone())
		}
	}
	if state != StateOpen {
		for _, in := range c.resolved {
			out = append(out, in.clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// OpenCount returns the number of open incidents (the telemetry gauge).
func (c *Correlator) OpenCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.open)
}

func containsTenant(s []core.TenantID, t core.TenantID) bool {
	for _, v := range s {
		if v == t {
			return true
		}
	}
	return false
}

func containsTrace(s []uint64, t uint64) bool {
	for _, v := range s {
		if v == t {
			return true
		}
	}
	return false
}

func containsElem(s []core.ElementID, e core.ElementID) bool {
	for _, v := range s {
		if v == e {
			return true
		}
	}
	return false
}
