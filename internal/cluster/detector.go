package cluster

import (
	"sort"
	"sync"
	"time"

	"nanoxbar/internal/resilience"
)

// State is a peer's position in the failure-detector ladder. A peer
// walks alive → suspect → dead as successful heartbeats age out, and
// snaps back to alive on the next successful probe. Suspect peers stay
// in the ring (slow is not dead — demoting them early would reshuffle
// key ownership on every GC pause); only dead peers are removed.
type State int

const (
	StateAlive State = iota
	StateSuspect
	StateDead
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return "unknown"
	}
}

// memberRecord is one tracked peer.
type memberRecord struct {
	id     string
	url    string
	state  State
	lastOK time.Time
	// left pins the peer dead after it announced drain via its
	// /healthz cluster block, without waiting out deadAfter. A later
	// successful probe (the process restarted) revives it.
	left bool
}

// Detector is the membership failure detector: pure state, driven
// entirely by Observe (probe outcomes) and Tick (suspicion-timeout
// walks) against the injected clock, so every transition sequence is
// reproducible under resilience.Fake. The HTTP prober that feeds it
// lives on Node.
type Detector struct {
	clock        resilience.Clock
	suspectAfter time.Duration
	deadAfter    time.Duration

	mu      sync.Mutex
	members map[string]*memberRecord
	// version increments on every state change; the router rebuilds
	// its ring only when it moves.
	version uint64

	onTransition func(id string, from, to State)
}

func newDetector(clock resilience.Clock, suspectAfter, deadAfter time.Duration, onTransition func(id string, from, to State)) *Detector {
	return &Detector{
		clock:        clock,
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
		members:      make(map[string]*memberRecord),
		onTransition: onTransition,
	}
}

// add registers a peer, optimistically alive: a booting cluster routes
// immediately, and a peer that is actually down ages into suspect/dead
// within deadAfter without ever having answered a probe.
func (d *Detector) add(id, url string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.members[id]; ok {
		return
	}
	d.members[id] = &memberRecord{id: id, url: url, state: StateAlive, lastOK: d.clock.Now()}
}

func (d *Detector) transition(m *memberRecord, to State) {
	from := m.state
	if from == to {
		return
	}
	m.state = to
	d.version++
	if d.onTransition != nil {
		d.onTransition(m.id, from, to)
	}
}

// Observe records one probe outcome. Success refreshes the suspicion
// deadline and revives the peer (dead → alive is how a restarted node
// rejoins the ring); failure records nothing — demotion is purely
// timeout-driven via Tick, so one dropped packet between healthy probes
// never flaps membership.
func (d *Detector) Observe(id string, ok bool) {
	if !ok {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	m, found := d.members[id]
	if !found {
		return
	}
	m.lastOK = d.clock.Now()
	m.left = false
	d.transition(m, StateAlive)
}

// MarkLeft pins a peer dead immediately: it told us it is draining, so
// waiting out the suspicion timeout would only route requests at a
// server that rejects them.
func (d *Detector) MarkLeft(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m, ok := d.members[id]; ok {
		m.left = true
		d.transition(m, StateDead)
	}
}

// Tick ages every member against the suspicion timeouts: no successful
// probe for suspectAfter demotes to suspect, for deadAfter to dead.
// Tick only demotes; revival is Observe's job.
func (d *Detector) Tick() {
	now := d.clock.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, m := range d.members {
		if m.left {
			continue // pinned dead until it probes OK again
		}
		switch elapsed := now.Sub(m.lastOK); {
		case elapsed >= d.deadAfter:
			d.transition(m, StateDead)
		case elapsed >= d.suspectAfter && m.state == StateAlive:
			d.transition(m, StateSuspect)
		}
	}
}

// Version returns the membership change counter.
func (d *Detector) Version() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.version
}

// Ringable returns the sorted ids of members that belong in the hash
// ring: everyone not dead. Suspect members keep their keys — see State.
func (d *Detector) Ringable() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]string, 0, len(d.members))
	for id, m := range d.members {
		if m.state != StateDead {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Counts returns the number of members per state.
func (d *Detector) Counts() (alive, suspect, dead int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, m := range d.members {
		switch m.state {
		case StateAlive:
			alive++
		case StateSuspect:
			suspect++
		case StateDead:
			dead++
		}
	}
	return
}

// MemberStatus is one peer's externally visible membership row.
type MemberStatus struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	State string `json:"state"`
}

// Members returns every tracked peer sorted by id.
func (d *Detector) Members() []MemberStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]MemberStatus, 0, len(d.members))
	for _, m := range d.members {
		out = append(out, MemberStatus{ID: m.id, URL: m.url, State: m.state.String()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
