package netem

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"reorder/internal/sim"
)

// eventLink is the reference Link must match: the same link written the
// obvious way, with one scheduled event per departure, whose only effect is
// that the occupancy count falls, and one per delivery, scheduled where the
// frame is accepted. Link keeps neither on the heap — departures only as
// keys (ReserveSeq, Passed), deliveries one per link at a time (AtReserved)
// — and must be indistinguishable from this.
type eventLink struct {
	cfg       LinkConfig
	loop      *sim.Loop
	next      Node
	stats     Counters
	busyUntil sim.Time
	queued    int
}

func (l *eventLink) Reinit(cfg LinkConfig, next Node) {
	l.cfg, l.next = cfg, next
	l.stats, l.busyUntil, l.queued = Counters{}, 0, 0
}

func (l *eventLink) SetRate(bps int64) { l.cfg.RateBps = bps }

func (l *eventLink) SetQueueLimit(n int) { l.cfg.QueueLimit = n }

func (l *eventLink) Stats() Counters { return l.stats }

func (l *eventLink) Input(f *Frame) {
	l.stats.In++
	if l.cfg.QueueLimit > 0 && l.queued >= l.cfg.QueueLimit {
		l.stats.Dropped++
		return
	}
	start := max(l.loop.Now(), l.busyUntil)
	var tx time.Duration
	if l.cfg.RateBps > 0 {
		tx = time.Duration(int64(f.Len()) * 8 * int64(time.Second) / l.cfg.RateBps)
	}
	departure := start.Add(tx)
	l.busyUntil = departure
	if l.cfg.QueueLimit > 0 {
		l.queued++
		l.loop.At(departure, func() { l.queued-- })
	}
	l.loop.At(departure.Add(l.cfg.PropDelay), func() {
		l.stats.Out++
		l.next.Input(f)
	})
}

// linkUnderTest is what the program below needs of either implementation.
type linkUnderTest interface {
	Node
	Reinit(LinkConfig, Node)
	SetRate(int64)
	SetQueueLimit(int)
	Stats() Counters
}

// runLinkProgram drives two links that feed one node, on one loop, through a
// random program and returns everything observable, in the order it
// happened: each offered frame's fate, each delivery with its link and
// instant, and each foreign event. Every choice comes from the seed alone,
// never from a link, so two implementations see the same program; and
// because the reference takes a sequence number for each departure and each
// delivery event exactly where Link reserves one, every event the two runs
// share has the same (time, sequence) key in both.
//
// The program is built to land on the cases where keeping departures and
// deliveries off the heap could differ from scheduling them: injection
// instants, ticks and both links' serialization times sit on one grid, so
// deliveries tie with departures, with foreign events and with the other
// link's deliveries, in both scheduling orders; frames are also offered
// from outside any event, straight after a Step and after RunUntil to,
// before and beyond the clock; rate and bound change mid-flow, the bound is
// lifted and reimposed; zero-rate links depart at the instant they accept
// and zero-delay ones deliver at the instant they depart, so an arrival can
// be due at the very instant of the Input; the node the links feed sends
// some frames round again from inside the delivery, into the link that is
// delivering or the other one; and both links are Reinit after a loop Reset
// that catches frames in flight.
func runLinkProgram(seed uint64, mk func(*sim.Loop, LinkConfig, Node) linkUnderTest) []string {
	rng := sim.NewRand(seed, 0x11c)
	loop := sim.NewLoop()
	var log []string
	const grid = 500 * time.Microsecond // serialization time of 500 bytes at 8 Mbps
	randCfg := func() LinkConfig {
		cfg := LinkConfig{RateBps: 8_000_000, PropDelay: time.Duration(rng.IntN(4)) * grid, QueueLimit: 1 + rng.IntN(6)}
		if rng.IntN(4) == 0 {
			cfg.RateBps = 0
		}
		return cfg
	}

	var links [2]linkUnderTest
	var offer func(to int, f *Frame, from string)
	rounds := map[uint64]int{} // times a frame has been sent round again
	sinks := [2]Node{}
	for i := range sinks {
		sinks[i] = NodeFunc(func(f *Frame) {
			log = append(log, fmt.Sprintf("out %d link %d at %d", f.ID, i, loop.Now()))
			if f.ID%3 == 0 && rounds[f.ID] < 2 {
				rounds[f.ID]++
				offer((i+rounds[f.ID])%2, f, "delivery")
			}
		})
	}
	for i := range links {
		links[i] = mk(loop, randCfg(), sinks[i])
	}
	offer = func(to int, f *Frame, from string) {
		before := links[to].Stats().Dropped
		links[to].Input(f)
		fate := "queued"
		if links[to].Stats().Dropped != before {
			fate = "dropped"
		}
		log = append(log, fmt.Sprintf("in %d link %d %s at %d: %s", f.ID, to, from, loop.Now(), fate))
	}

	var id uint64
	injected := 0
	fresh := func(from string) {
		id++
		offer(rng.IntN(2), frame(id, 500*(1+rng.IntN(2))), from)
	}
	var inject func()
	inject = func() {
		injected++
		// A burst, so that frames queue behind one another in the lane.
		for k := 1 + rng.IntN(3); k > 0; k-- {
			fresh("event")
		}
		if rng.IntN(3) == 0 {
			// Scheduled from inside an event: sequenced after everything
			// this event's Inputs reserved.
			loop.Schedule(time.Duration(rng.IntN(3))*grid, inject)
		}
	}
	ticks := 0
	tick := func() {
		ticks++
		log = append(log, fmt.Sprintf("tick %d at %d", ticks, loop.Now()))
	}

	for phase := 0; phase < 60; phase++ {
		for k := rng.IntN(4); k > 0; k-- {
			switch rng.IntN(8) {
			case 0:
				fresh("outside")
			case 1:
				if rng.IntN(2) == 0 {
					links[rng.IntN(2)].SetQueueLimit(0)
				} else {
					links[rng.IntN(2)].SetQueueLimit(1 + rng.IntN(6))
				}
			case 2:
				// Rates whose serialization times stay on the grid, and
				// infinitely fast.
				links[rng.IntN(2)].SetRate([]int64{0, 4_000_000, 8_000_000, 16_000_000}[rng.IntN(4)])
			case 3:
				loop.At(loop.Now().Add(time.Duration(rng.IntN(8))*grid), tick)
			default:
				// May fall behind the clock, where At clamps it to now.
				loop.At(loop.Now().Add(time.Duration(rng.IntN(8)-1)*grid), inject)
			}
		}
		switch rng.IntN(6) {
		case 0:
			loop.RunUntil(loop.Now())
		case 1:
			loop.RunUntil(loop.Now() - sim.Time(grid))
		case 2:
			loop.RunUntil(loop.Now().Add(time.Duration(rng.IntN(6)) * grid))
		case 3:
			loop.RunUntilIdle(0)
		default:
			// Stop between two events at whatever instant the next
			// injections fall on, leaving later same-instant events (the
			// reference's departures and deliveries among them) unexecuted.
			for stop := injected + 1 + rng.IntN(2); injected < stop && loop.Step(); {
			}
		}
		if phase%20 == 19 {
			fresh("outside") // in flight at the reset, whatever the phase left
			fresh("outside")
			for i := range links {
				log = append(log, fmt.Sprintf("stats %d %+v", i, links[i].Stats()))
			}
			loop.Reset()
			for i := range links {
				links[i].Reinit(randCfg(), sinks[i])
			}
			log = append(log, "reinit")
		}
	}
	loop.RunUntilIdle(0)
	for i := range links {
		log = append(log, fmt.Sprintf("stats %d %+v", i, links[i].Stats()))
	}
	return log
}

func newLinkUnderTest(loop *sim.Loop, cfg LinkConfig, next Node) linkUnderTest {
	return NewLink(loop, cfg, next)
}

func TestLinkMatchesEventPerFrame(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		got := runLinkProgram(seed, newLinkUnderTest)
		want := runLinkProgram(seed, func(loop *sim.Loop, cfg LinkConfig, next Node) linkUnderTest {
			return &eventLink{cfg: cfg, loop: loop, next: next}
		})
		if !slices.Equal(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: step %d: Link %q, reference %q", seed, i, slices.Concat(got, []string{"<end>"})[i], want[i])
				}
			}
			t.Fatalf("seed %d: Link logged %d extra steps", seed, len(got)-len(want))
		}
	}
}

// TestLinkProgramReachesTheHardCases keeps the differential honest: the
// program must actually queue and drop frames offered every way, hold
// several frames in flight on one link, and produce the ties it is for.
func TestLinkProgramReachesTheHardCases(t *testing.T) {
	counts := map[string]int{}
	for seed := uint64(1); seed <= 300; seed++ {
		var (
			inFlight         [2]int
			prevKind, prevAt string // the previous line, when it was an event
			prevLink         string
		)
		for _, line := range runLinkProgram(seed, newLinkUnderTest) {
			w := strings.Fields(line)
			kind, link, at := w[0], "", ""
			switch kind {
			case "in": // in <id> link <i> <from> at <t>: <fate>
				link, at = w[3], strings.TrimSuffix(w[6], ":")
				counts[w[4]+": "+w[7]]++
				if w[7] == "queued" {
					if inFlight[link[0]-'0']++; inFlight[link[0]-'0'] >= 4 {
						counts["four in flight"]++
					}
				}
			case "out": // out <id> link <i> at <t>
				link, at = w[3], w[5]
				inFlight[link[0]-'0']--
				if at == prevAt {
					switch {
					case prevKind == "out" && prevLink != link:
						counts["delivery tied with the other link's"]++
					case prevKind == "tick":
						counts["delivery tied with a foreign event"]++
					}
				}
			case "tick": // tick <n> at <t>
				at = w[3]
				if at == prevAt && prevKind == "out" {
					counts["delivery tied with a foreign event"]++
				}
			case "reinit":
				if inFlight[0]+inFlight[1] > 0 {
					counts["reset with frames in flight"]++
				}
				inFlight = [2]int{}
			}
			prevKind, prevLink, prevAt = kind, link, at
		}
	}
	for _, k := range []string{
		"event: queued", "event: dropped", "outside: queued", "outside: dropped",
		"delivery: queued", "delivery: dropped", "four in flight",
		"delivery tied with the other link's", "delivery tied with a foreign event",
		"reset with frames in flight",
	} {
		if counts[k] < 100 {
			t.Errorf("only %d cases of %q across the seeds", counts[k], k)
		}
	}
}

// TestLinkDeliversAtTheInstantOfInput is the zero-rate, zero-delay corner on
// its own: the arrival is due at the very instant the frame is accepted,
// inside an event, between Steps and after a completed RunUntil — where the
// reserved key equals the loop's execution frontier — and the delivery still
// runs, after the events already scheduled at that instant.
func TestLinkDeliversAtTheInstantOfInput(t *testing.T) {
	loop := sim.NewLoop()
	var got []string
	l := NewLink(loop, LinkConfig{}, NodeFunc(func(f *Frame) {
		got = append(got, fmt.Sprintf("out %d at %d", f.ID, loop.Now()))
	}))
	note := func(s string) func() { return func() { got = append(got, s) } }

	loop.At(sim.Time(5), func() {
		loop.At(sim.Time(5), note("a"))
		l.Input(frame(1, 100))
		l.Input(frame(2, 100))
		loop.At(sim.Time(5), note("b"))
	})
	loop.Step()
	l.Input(frame(3, 100)) // between Steps
	loop.RunUntil(sim.Time(9))
	l.Input(frame(4, 100)) // the first key after RunUntil is the frontier itself
	loop.At(sim.Time(9), note("c"))
	loop.RunUntilIdle(0)

	want := []string{"a", "out 1 at 5", "out 2 at 5", "b", "out 3 at 5", "out 4 at 9", "c"}
	if !slices.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	if peak := loop.Stats().PeakHeapSize; peak > 4 {
		t.Fatalf("heap peaked at %d", peak)
	}
}

// TestBoundedLinkForwardAllocs pins the steady state of a bounded link:
// once the departure queue has its storage, accepting and delivering a
// frame allocates nothing.
func TestBoundedLinkForwardAllocs(t *testing.T) {
	loop := sim.NewLoop()
	l := NewLink(loop, LinkConfig{RateBps: 8_000_000, PropDelay: time.Millisecond, QueueLimit: 32}, Discard)
	f := frame(1, 500)
	burst := func() {
		for i := 0; i < 40; i++ { // overruns the bound: drops are on the path too
			l.Input(f)
		}
		loop.RunFor(10 * time.Millisecond) // drains about half, so the queue never empties
	}
	if avg := testing.AllocsPerRun(200, burst); avg != 0 {
		t.Fatalf("bounded link forwarding allocates %.2f per burst, want 0", avg)
	}
	if st := l.Stats(); st.Dropped == 0 || st.Out == 0 {
		t.Fatalf("burst exercised neither drops nor deliveries: %+v", st)
	}
}

// TestLinkLaneAllocs pins the lane's steady state: a pooled link that has
// once held 32 frames in flight holds them again, after Loop.Reset and
// Reinit, without allocating — the lane's storage survives Reinit — and all
// the while the loop carries one entry for the link, not 32.
func TestLinkLaneAllocs(t *testing.T) {
	loop := sim.NewLoop()
	// 32 frames serialize in 16ms and arrive 20ms later: all are in flight
	// together.
	cfg := LinkConfig{RateBps: 8_000_000, PropDelay: 20 * time.Millisecond, QueueLimit: 32}
	l := NewLink(loop, cfg, Discard)
	f := frame(1, 500)
	round := func() {
		loop.Reset()
		l.Reinit(cfg, Discard)
		for i := 0; i < 32; i++ {
			l.Input(f)
		}
		loop.RunUntilIdle(0)
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("a warmed link allocates %.2f per 32 frames in flight, want 0", avg)
	}
	if st := l.Stats(); st.Out != 32 || st.Dropped != 0 {
		t.Fatalf("round delivered %+v, want 32 out", st)
	}
	if peak := loop.Stats().PeakHeapSize; peak != 1 {
		t.Fatalf("loop held %d entries for one link, want 1", peak)
	}
}
