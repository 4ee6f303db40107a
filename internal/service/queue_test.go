package service

import (
	"errors"
	"testing"
)

func TestJobQueueBound(t *testing.T) {
	q := newJobQueue(2)
	if err := tryPush(q, &Job{id: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := tryPush(q, &Job{id: "b"}); err != nil {
		t.Fatal(err)
	}
	if got := q.Len(); got != 2 {
		t.Fatalf("depth %d, want 2", got)
	}
	if err := tryPush(q, &Job{id: "c"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	// Draining one slot re-opens admission.
	if j, ok := q.Pop(); !ok || j.id != "a" {
		t.Fatalf("popped %v, want a (same class and client is FIFO)", j)
	}
	if err := tryPush(q, &Job{id: "c"}); err != nil {
		t.Fatalf("push after pop: %v", err)
	}
}

func TestStateTerminal(t *testing.T) {
	for _, st := range []JobState{StateQueued, StateRunning} {
		if st.Terminal() {
			t.Errorf("%s reported terminal", st)
		}
	}
	for _, st := range TerminalStates {
		if !st.Terminal() {
			t.Errorf("%s reported non-terminal", st)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	good := ScreenRequest{}.withDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []ScreenRequest{
		{Dataset: "9XYZ"},
		{Library: -1},
		{Library: 20000},
		{Spots: 500},
		{Metaheuristic: "M9"},
		{Scale: 2},
		{Machine: "Saturn"},
		{Machine: "Jupiter", Mode: "round-robin"},
		{TimeoutSeconds: -3},
		{Priority: "urgent"},
		{DeadlineSeconds: -1},
		{Faults: "dev0:fail@1"},                         // faults require a machine
		{Machine: "Hertz", Faults: "dev9:fail@1"},       // device index out of range
		{Machine: "Hertz", Faults: "dev0:wobble"},       // unknown fault kind
		{Machine: "Hertz", Faults: "dev0:throttle@NaN"}, // non-finite values inject nothing
		{Machine: "Hertz", Faults: "dev0:fail@Inf"},
		{Machine: "Hertz", Faults: "dev0:transient@NaN"},
	}
	for _, r := range bad {
		if err := r.withDefaults().Validate(); err == nil {
			t.Errorf("request %+v accepted", r)
		}
	}
	// Machine requests resolve to a pool backend factory.
	r := ScreenRequest{Machine: "Hertz", Mode: "heterogeneous"}.withDefaults()
	if err := r.Validate(); err != nil {
		t.Fatalf("hertz request invalid: %v", err)
	}
	if _, err := r.backendFactory(); err != nil {
		t.Fatalf("hertz backend factory: %v", err)
	}
}
