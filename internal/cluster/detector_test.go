package cluster

import (
	"reflect"
	"testing"
	"time"

	"nanoxbar/internal/resilience"
)

// transitionLog records detector callbacks for exact-sequence pinning.
type transitionLog struct {
	events []string
}

func (l *transitionLog) record(id string, from, to State) {
	l.events = append(l.events, id+":"+from.String()+"->"+to.String())
}

// TestDetectorLifecycle pins the full alive → suspect → dead → alive
// arc on a deterministic fake clock: demotions are purely
// timeout-driven (failed probes do nothing on their own), and a single
// successful probe revives a dead member.
func TestDetectorLifecycle(t *testing.T) {
	start := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	clock := resilience.NewFake(start)
	log := &transitionLog{}
	d := newDetector(clock, 3*time.Second, 6*time.Second, log.record)
	d.add("b", "http://b")

	if st, ok := d.StateOf("b"); !ok || st != StateAlive {
		t.Fatalf("StateOf(b) = %v, %v; want alive, true", st, ok)
	}

	// Failed probes alone never demote: suspicion is elapsed-time-based
	// so one slow probe round does not flap the ring.
	d.Observe("b", false)
	d.Tick()
	if st, _ := d.StateOf("b"); st != StateAlive {
		t.Fatalf("after failed probe within timeout: state = %v, want alive", st)
	}

	// Just under the suspect window: still alive.
	clock.Advance(3*time.Second - time.Millisecond)
	d.Tick()
	if st, _ := d.StateOf("b"); st != StateAlive {
		t.Fatalf("at suspectAfter-1ms: state = %v, want alive", st)
	}

	// Crossing suspectAfter demotes to suspect — but the member stays
	// ringable: only dead members leave the ring.
	clock.Advance(time.Millisecond)
	d.Tick()
	if st, _ := d.StateOf("b"); st != StateSuspect {
		t.Fatalf("at suspectAfter: state = %v, want suspect", st)
	}
	if got := d.Ringable(); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("suspect member dropped from ring: Ringable() = %v", got)
	}

	// Crossing deadAfter demotes to dead and removes it from the ring.
	clock.Advance(3 * time.Second)
	d.Tick()
	if st, _ := d.StateOf("b"); st != StateDead {
		t.Fatalf("at deadAfter: state = %v, want dead", st)
	}
	if got := d.Ringable(); len(got) != 0 {
		t.Fatalf("dead member still ringable: %v", got)
	}

	// One successful probe revives it straight to alive.
	d.Observe("b", true)
	if st, _ := d.StateOf("b"); st != StateAlive {
		t.Fatalf("after successful probe: state = %v, want alive", st)
	}
	if got := d.Ringable(); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("revived member not ringable: %v", got)
	}

	want := []string{
		"b:alive->suspect",
		"b:suspect->dead",
		"b:dead->alive",
	}
	if !reflect.DeepEqual(log.events, want) {
		t.Fatalf("transition sequence = %v, want %v", log.events, want)
	}
}

// TestDetectorObserveRefreshesDeadline checks that successful probes
// keep pushing the suspicion window forward.
func TestDetectorObserveRefreshesDeadline(t *testing.T) {
	clock := resilience.NewFake(time.Unix(0, 0))
	d := newDetector(clock, 3*time.Second, 6*time.Second, nil)
	d.add("b", "http://b")

	for i := 0; i < 10; i++ {
		clock.Advance(2 * time.Second) // under suspectAfter each step
		d.Observe("b", true)
		d.Tick()
		if st, _ := d.StateOf("b"); st != StateAlive {
			t.Fatalf("step %d: state = %v, want alive", i, st)
		}
	}
}

// TestDetectorMarkLeft pins the drain path: a peer announcing
// leaving=true goes dead immediately — no suspicion window — and stays
// dead across ticks, but a genuinely restarted process (successful
// probe) still revives it.
func TestDetectorMarkLeft(t *testing.T) {
	clock := resilience.NewFake(time.Unix(0, 0))
	log := &transitionLog{}
	d := newDetector(clock, 3*time.Second, 6*time.Second, log.record)
	d.add("b", "http://b")

	v0 := d.Version()
	d.MarkLeft("b")
	if st, _ := d.StateOf("b"); st != StateDead {
		t.Fatalf("after MarkLeft: state = %v, want dead", st)
	}
	if d.Version() == v0 {
		t.Fatal("MarkLeft did not bump the ring version")
	}

	// Ticks do not resurrect a departed member even though lastOK is
	// recent.
	clock.Advance(time.Millisecond)
	d.Tick()
	if st, _ := d.StateOf("b"); st != StateDead {
		t.Fatalf("after Tick: state = %v, want dead (left pin)", st)
	}

	// A successful probe means the process came back: revive.
	d.Observe("b", true)
	if st, _ := d.StateOf("b"); st != StateAlive {
		t.Fatalf("after revival probe: state = %v, want alive", st)
	}
	clock.Advance(time.Millisecond)
	d.Tick()
	if st, _ := d.StateOf("b"); st != StateAlive {
		t.Fatalf("revived member demoted by next tick: state = %v", st)
	}
}

// TestDetectorCountsAndMembers covers the aggregate views the metrics
// and /healthz surfaces read.
func TestDetectorCountsAndMembers(t *testing.T) {
	clock := resilience.NewFake(time.Unix(0, 0))
	d := newDetector(clock, 3*time.Second, 6*time.Second, nil)
	d.add("c", "http://c")
	d.add("a", "http://a")
	d.add("b", "http://b")

	// Age a past suspect, b past dead; keep c fresh.
	clock.Advance(4 * time.Second)
	d.Observe("c", true)
	d.Tick() // a, b suspect
	clock.Advance(3 * time.Second)
	d.Observe("a", true) // a back alive...
	clock.Advance(time.Second)
	d.Tick() // ...then suspect is not yet reached for a; b dead; c suspect? No: c lastOK 4s ago
	// At this point: a lastOK 1s ago (alive), b lastOK 8s ago (dead),
	// c lastOK 4s ago (suspect).
	alive, suspect, dead := d.Counts()
	if alive != 1 || suspect != 1 || dead != 1 {
		t.Fatalf("Counts() = %d/%d/%d, want 1/1/1", alive, suspect, dead)
	}

	ms := d.Members()
	if len(ms) != 3 {
		t.Fatalf("Members() len = %d, want 3", len(ms))
	}
	// Sorted by id, states as derived above.
	wantStates := map[string]string{"a": "alive", "b": "dead", "c": "suspect"}
	for i, m := range ms {
		if i > 0 && ms[i-1].ID >= m.ID {
			t.Fatalf("Members() not sorted: %v", ms)
		}
		if m.State != wantStates[m.ID] {
			t.Fatalf("member %s state = %q, want %q", m.ID, m.State, wantStates[m.ID])
		}
	}

	if got := d.Ringable(); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Fatalf("Ringable() = %v, want [a c]", got)
	}
}

// TestDetectorVersionGatesRebuilds: the version only moves on state
// transitions, so ring rebuilds are cheap no-ops on quiet ticks.
func TestDetectorVersionGatesRebuilds(t *testing.T) {
	clock := resilience.NewFake(time.Unix(0, 0))
	d := newDetector(clock, 3*time.Second, 6*time.Second, nil)
	d.add("b", "http://b")
	v := d.Version()
	for i := 0; i < 5; i++ {
		clock.Advance(time.Second)
		d.Observe("b", true)
		d.Tick()
	}
	if d.Version() != v {
		t.Fatalf("version moved on steady-state ticks: %d -> %d", v, d.Version())
	}
	clock.Advance(10 * time.Second)
	d.Tick()
	if d.Version() == v {
		t.Fatal("version did not move on a state transition")
	}
}

// StateOf returns a member's current state.
func (d *Detector) StateOf(id string) (State, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.members[id]
	if !ok {
		return StateDead, false
	}
	return m.state, true
}
