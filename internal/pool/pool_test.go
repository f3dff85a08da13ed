package pool

import (
	"context"
	"errors"
	"testing"
	"time"
)

// hold occupies one slot of p until the returned release is called.
func hold(t *testing.T, p *Pool) (release func()) {
	t.Helper()
	held := make(chan struct{})
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		p.Do(context.Background(), func() {
			close(held)
			<-done
		})
	}()
	<-held
	return func() {
		close(done)
		<-exited
	}
}

// free reports whether p has a free slot right now, without keeping it.
func free(p *Pool) bool { return p.TryDo(func() {}) }

func TestDoCancelledWhileWaiting(t *testing.T) {
	p := New(1)
	release := hold(t, p)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	ran := false
	go func() { errc <- p.Do(ctx, func() { ran = true }) }()
	// Give Do time to block on the full pool. The checks below hold even if
	// cancel wins the race, since Do refuses a done ctx on entry too.
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("fn ran after cancellation")
	}
	release()
	if !free(p) {
		t.Fatal("cancelled waiter lost the slot")
	}
}

func TestDoCancellationWinsOverFreeSlot(t *testing.T) {
	p := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		if err := p.Do(ctx, func() { t.Fatal("fn ran under a cancelled context") }); !errors.Is(err, context.Canceled) {
			t.Fatalf("Do = %v, want context.Canceled", err)
		}
	}
	if !free(p) {
		t.Fatal("slot lost")
	}
}

func TestDoPanicReleasesSlot(t *testing.T) {
	p := New(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		p.Do(context.Background(), func() { panic("boom") })
	}()
	if !free(p) {
		t.Fatal("panicking fn kept its slot")
	}
}

func TestTryDoOnFullPool(t *testing.T) {
	p := New(1)
	release := hold(t, p)
	if p.TryDo(func() { t.Fatal("fn ran on a full pool") }) {
		t.Fatal("TryDo on a full pool returned true")
	}
	release()
	ran := false
	if !p.TryDo(func() { ran = true }) || !ran {
		t.Fatal("TryDo on a free pool did not run fn")
	}
}
