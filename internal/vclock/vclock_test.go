package vclock

import (
	"testing"
	"time"
)

func TestNowMonotone(t *testing.T) {
	prev := Now()
	for i := 0; i < 1000; i++ {
		cur := Now()
		if cur < prev {
			t.Fatalf("clock went backwards: %d -> %d", prev, cur)
		}
		prev = cur
	}
}

func TestNowAdvances(t *testing.T) {
	a := Now()
	time.Sleep(2 * time.Millisecond)
	b := Now()
	if b-a < int64(time.Millisecond) {
		t.Fatalf("clock barely advanced: %d ns", b-a)
	}
}
