package core

import (
	"math"
	"testing"
	"time"
)

// TestNextBackoffSaturates: the retry pause doubles but must cap at
// maxRetryBackoff — a generous Retries budget cannot escalate into
// multi-hour sleeps, and a huge duration cannot overflow.
func TestNextBackoffSaturates(t *testing.T) {
	d := 100 * time.Millisecond
	for i := 0; i < 64; i++ {
		d = NextBackoff(d)
		if d > maxRetryBackoff {
			t.Fatalf("step %d: backoff %v exceeds cap %v", i, d, maxRetryBackoff)
		}
	}
	if d != maxRetryBackoff {
		t.Errorf("backoff settled at %v, want %v", d, maxRetryBackoff)
	}
	if got := NextBackoff(maxRetryBackoff); got != maxRetryBackoff {
		t.Errorf("NextBackoff(cap) = %v, want %v", got, maxRetryBackoff)
	}
	if got := NextBackoff(time.Duration(math.MaxInt64)); got != maxRetryBackoff {
		t.Errorf("NextBackoff(MaxInt64) = %v, want %v (overflow guard)", got, maxRetryBackoff)
	}
	if got := NextBackoff(time.Millisecond); got != 2*time.Millisecond {
		t.Errorf("NextBackoff(1ms) = %v, want 2ms", got)
	}
}
