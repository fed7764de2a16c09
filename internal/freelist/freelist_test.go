package freelist

import (
	"sync"
	"testing"
)

// TestListKeepsAtMostItsBound: Put beyond the bound drops the value, and
// Get hands back the most recently kept one first.
func TestListKeepsAtMostItsBound(t *testing.T) {
	l := New[int](3)
	for i := 1; i <= 5; i++ {
		l.Put(i)
	}
	for _, want := range []int{3, 2, 1} {
		if got, ok := l.Get(); !ok || got != want {
			t.Fatalf("Get = (%d, %t), want (%d, true)", got, ok, want)
		}
	}
	if got, ok := l.Get(); ok {
		t.Fatalf("Get on an empty list = %d, want none", got)
	}
}

// TestClassesShareOneListPerKey: every owner that looks up a class gets the
// same list, and classes do not mix.
func TestClassesShareOneListPerKey(t *testing.T) {
	c := NewClasses[int, []byte](2)
	if c.Of(4096) != c.Of(4096) {
		t.Fatal("two lookups of one class returned different lists")
	}
	c.Of(4096).Put(make([]byte, 4096))
	if _, ok := c.Of(8192).Get(); ok {
		t.Fatal("a 4096-byte buffer came out of the 8192 class")
	}
}

// TestListConcurrentUse: owners on several goroutines put and get at once
// (run under -race); nothing is handed out twice.
func TestListConcurrentUse(t *testing.T) {
	l := New[*int](64)
	var wg sync.WaitGroup
	seen := make([]map[*int]bool, 4)
	for g := range seen {
		seen[g] = map[*int]bool{}
		wg.Add(1)
		//simlint:allow simproc the lists are shared by concurrent replay workers; this checks them from real goroutines and simulates nothing
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if x, ok := l.Get(); ok {
					seen[g][x] = true
				}
				l.Put(new(int))
			}
		}()
	}
	wg.Wait()
	owner := map[*int]int{}
	for g, s := range seen {
		for x := range s {
			if h, dup := owner[x]; dup {
				t.Fatalf("one value was handed to goroutines %d and %d", h, g)
			}
			owner[x] = g
		}
	}
}
