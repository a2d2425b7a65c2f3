package main

import "testing"

// TestMissNote pins the classification of a miss: only primes are
// reported as the expected Fig. 13 outcome; composites whose factor pair
// cannot be represented in the WordSizes words are named as such.
func TestMissNote(t *testing.T) {
	for _, tc := range []struct {
		n    uint64
		want string
	}{
		{4, "n is composite, but no factor pair fits the (2, 1)-bit words"},
		{25, "n is composite, but no factor pair fits the (4, 2)-bit words"},
		{13, "expected when n is prime (Fig. 13)"},
		{35, "n is composite; its factors were not found within the horizon"},
	} {
		if got := missNote(tc.n); got != tc.want {
			t.Errorf("missNote(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}
