package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"clusterbooster/internal/vclock"
)

// TestOneGroupSchedulingCounters pins the exact scheduling of a fixed task
// graph on a one-group kernel: event order, task fates and every counter.
// The graph drives each path of the kernel once or more — a park/wake
// handoff, SleepUntil keeping the baton (strictly earliest, and popping its
// own event back behind an inline callback) and switching, a same-instant
// wakeup fan-out, callbacks at the same instant as wakeups, Fail on a
// parked and on a ready task, and a deadlock report — so any change to the
// serial schedule or its cost accounting shows here.
func TestOneGroupSchedulingCounters(t *testing.T) {
	const us = vclock.Microsecond
	e := New()
	var log []string
	note := func(s string) { log = append(log, s) }

	names := []string{"ping", "pong", "root", "leaf0", "leaf1", "leaf2",
		"sleeper", "parked-victim", "ready-victim", "stuck0", "stuck1"}
	tk := map[string]*Task{}
	for _, n := range names {
		tk[n] = e.NewTask(n)
		tk[n].StartAt(0)
	}
	leaf := func(i int) func(*Task) {
		return func(self *Task) {
			self.Park()
			note(fmt.Sprintf("leaf%d", i))
			if i == 2 {
				tk["root"].WakeAt(6 * us)
			}
		}
	}
	bodies := map[string]func(*Task){
		"ping": func(self *Task) {
			self.SleepUntil(us / 2) // pong parks first
			for i := 1; i <= 3; i++ {
				note("ping")
				tk["pong"].WakeAt(vclock.Time(i) * us)
				self.Park()
			}
			note("ping-end")
		},
		"pong": func(self *Task) {
			self.Park()
			for i := 1; i <= 3; i++ {
				note("pong")
				tk["ping"].WakeAt(vclock.Time(i) * us)
				if i < 3 {
					self.Park()
				}
			}
		},
		"root": func(self *Task) {
			self.SleepUntil(4 * us)
			for i := 0; i < 3; i++ {
				tk[fmt.Sprintf("leaf%d", i)].WakeAt(5 * us)
			}
			e.CallAt(5*us, func() { note("cb@5-late") })
			self.Park()
			note("root-end")
		},
		"leaf0": leaf(0),
		"leaf1": leaf(1),
		"leaf2": leaf(2),
		"sleeper": func(self *Task) {
			self.SleepUntil(2*us + us/2)
			note("sleeper@2.5")
			self.SleepUntil(10 * us)
			note("sleeper@10")
			self.SleepUntil(10*us + us/2) // cb@10.2 runs inline, then keep
			note("sleeper@10.5")
			self.SleepUntil(11 * us) // strictly earliest: keep
			note("sleeper@11")
		},
		"parked-victim": func(self *Task) { self.Park() },
		"ready-victim":  func(self *Task) { self.SleepUntil(9 * us) },
		"stuck0":        func(self *Task) { self.Park() },
		"stuck1":        func(self *Task) { self.Park() },
	}
	e.CallAt(5*us, func() { note("cb@5-early") })
	e.CallAt(7*us, func() { tk["parked-victim"].Fail(7*us, errors.New("node down")) })
	e.CallAt(8*us, func() { tk["ready-victim"].Fail(8*us, errors.New("link down")) })
	e.CallAt(10*us+us/5, func() { note("cb@10.2") })

	fates := map[string]string{}
	var wg sync.WaitGroup
	wg.Add(len(names))
	for _, n := range names {
		go func(n string) {
			defer wg.Done()
			self := tk[n]
			defer self.Exit()
			defer func() {
				if r := recover(); r != nil {
					fates[n] = fmt.Sprint(r)
				}
			}()
			self.WaitStart()
			bodies[n](self)
		}(n)
	}
	e.Run()
	wg.Wait()

	wantLog := "ping pong ping pong ping sleeper@2.5 pong ping-end cb@5-early leaf0 leaf1 leaf2 cb@5-late root-end sleeper@10 cb@10.2 sleeper@10.5 sleeper@11"
	if got := strings.Join(log, " "); got != wantLog {
		t.Errorf("event order:\n got %s\nwant %s", got, wantLog)
	}
	wantFates := map[string]string{
		"parked-victim": `task "parked-victim" torn down: node down`,
		"ready-victim":  `task "ready-victim" torn down: link down`,
		"stuck0":        `engine: deadlock: task "stuck0" blocked with no pending events (1 tasks affected)`,
		"stuck1":        `engine: deadlock: task "stuck1" blocked with no pending events (2 tasks affected)`,
	}
	if fmt.Sprint(fates) != fmt.Sprint(wantFates) {
		t.Errorf("fates:\n got %v\nwant %v", fates, wantFates)
	}

	st := e.Stats()
	got := fmt.Sprintf("events=%d parks=%d switches=%d kept=%d callbacks=%d peak_parked=%d tasks=%d",
		st.Events, st.Parks, st.Switches, st.Kept, st.Callbacks, st.PeakParked, st.Tasks)
	const want = "events=34 parks=18 switches=27 kept=2 callbacks=5 peak_parked=7 tasks=11"
	if got != want {
		t.Errorf("counters:\n got %s\nwant %s", got, want)
	}
	if st.Groups != 0 || st.Rounds != 0 || st.GroupRuns != 0 {
		t.Errorf("one-group kernel reports parallel activity: groups=%d rounds=%d group_runs=%d",
			st.Groups, st.Rounds, st.GroupRuns)
	}
	if s := st.String(); strings.Contains(s, "par_") {
		t.Errorf("one-group stats line carries parallel fields: %s", s)
	}
	checkInvariants(t, st)
}
