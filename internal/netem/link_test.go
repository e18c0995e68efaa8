package netem

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"reorder/internal/sim"
)

// eventLink is the reference the lazy-occupancy Link must match: the same
// link with its occupancy kept the obvious way, one scheduled event per
// departure whose only effect is that the count falls.
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

func (l *eventLink) SetQueueLimit(n int) { l.cfg.QueueLimit = n }

func (l *eventLink) Stats() Counters { return l.stats }

func (l *eventLink) Input(f *Frame) {
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
	l.loop.At(departure.Add(l.cfg.PropDelay), func() { l.next.Input(f) })
}

// linkUnderTest is what the program below needs of either implementation.
type linkUnderTest interface {
	Node
	Reinit(LinkConfig, Node)
	SetQueueLimit(int)
	Stats() Counters
}

// runLinkProgram drives one link on its own loop through a random program
// and returns everything observable: each offered frame's fate and each
// delivery with its instant. Every choice comes from the seed alone, never
// from the link, so two implementations see the same program; and because
// the reference takes a sequence number for each departure event exactly
// where Link reserves one, every event the two runs share has the same
// (time, sequence) key in both.
//
// The program is built to land on the cases where counting departures
// lazily could differ from counting them by event: injection instants sit
// on the grid of serialization times, so departures tie with injections in
// both scheduling orders; frames are also offered from outside any event,
// straight after a Step and after RunUntil to, before and beyond the
// clock; the bound is lifted and reimposed mid-flow; zero-rate links
// depart at the instant they accept; and the link is Reinit after a loop
// Reset.
func runLinkProgram(seed uint64, mk func(*sim.Loop, LinkConfig, Node) linkUnderTest) []string {
	rng := sim.NewRand(seed, 0x11c)
	loop := sim.NewLoop()
	var log []string
	sink := NodeFunc(func(f *Frame) {
		log = append(log, fmt.Sprintf("out %d at %d", f.ID, loop.Now()))
	})
	const grid = 500 * time.Microsecond // serialization time of 500 bytes at 8 Mbps
	randCfg := func() LinkConfig {
		cfg := LinkConfig{RateBps: 8_000_000, PropDelay: time.Duration(rng.IntN(4)) * grid, QueueLimit: 1 + rng.IntN(4)}
		if rng.IntN(4) == 0 {
			cfg.RateBps = 0
		}
		return cfg
	}
	link := mk(loop, randCfg(), sink)

	var id uint64
	injected := 0
	offer := func(from string) {
		id++
		before := link.Stats().Dropped
		link.Input(frame(id, 500*(1+rng.IntN(2))))
		fate := "queued"
		if link.Stats().Dropped != before {
			fate = "dropped"
		}
		log = append(log, fmt.Sprintf("in %d %s at %d: %s", id, from, loop.Now(), fate))
	}
	var inject func()
	inject = func() {
		injected++
		offer("event")
		if rng.IntN(3) == 0 {
			// Scheduled from inside an event: sequenced after everything
			// this event's Input reserved.
			loop.Schedule(time.Duration(rng.IntN(3))*grid, inject)
		}
	}

	for phase := 0; phase < 60; phase++ {
		for k := rng.IntN(4); k > 0; k-- {
			switch rng.IntN(5) {
			case 0:
				offer("outside")
			case 1:
				if rng.IntN(2) == 0 {
					link.SetQueueLimit(0)
				} else {
					link.SetQueueLimit(1 + rng.IntN(4))
				}
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
			// injections fall on, leaving later same-instant events (and
			// the reference's departures among them) unexecuted.
			for stop := injected + 1 + rng.IntN(2); injected < stop && loop.Step(); {
			}
		}
		if phase%20 == 19 {
			loop.Reset()
			link.Reinit(randCfg(), sink)
			log = append(log, "reinit")
		}
	}
	loop.RunUntilIdle(0)
	return log
}

func TestLinkMatchesEventPerDeparture(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		got := runLinkProgram(seed, func(loop *sim.Loop, cfg LinkConfig, next Node) linkUnderTest {
			return NewLink(loop, cfg, next)
		})
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
// program must actually queue and drop frames offered both ways.
func TestLinkProgramReachesTheHardCases(t *testing.T) {
	counts := map[string]int{}
	for seed := uint64(1); seed <= 300; seed++ {
		for _, line := range runLinkProgram(seed, func(loop *sim.Loop, cfg LinkConfig, next Node) linkUnderTest {
			return NewLink(loop, cfg, next)
		}) {
			for _, k := range []string{"event", "outside"} {
				if strings.Contains(line, " "+k+" at ") {
					counts[k+line[strings.LastIndex(line, ":"):]]++
				}
			}
		}
	}
	for _, k := range []string{"event: queued", "event: dropped", "outside: queued", "outside: dropped"} {
		if counts[k] < 100 {
			t.Errorf("only %d frames were %q across the seeds", counts[k], k)
		}
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
