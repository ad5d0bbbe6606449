package mc

import (
	"reflect"
	"testing"
)

func TestParseOutcome(t *testing.T) {
	regs := [][]int{{1, 0, -3}, {0, 7, 2}}
	for _, tc := range []struct {
		name             string
		outcome          string
		threads, regsPer int
		want             [][]int
		ok               bool
	}{
		{"round trip", FormatOutcome(regs), 2, 3, regs, true},
		{"empty outcome", "", 2, 1, [][]int{{0}, {0}}, true},
		{"omitted register reads 0", "T1:r0=4", 2, 1, [][]int{{0}, {4}}, true},
		{"not a token", "T0:r0=1 garbage", 2, 1, nil, false},
		{"missing value", "T0:r0=", 1, 1, nil, false},
		{"trailing junk", "T0:r0=1x", 1, 1, nil, false},
		{"missing thread prefix", "0:r0=1", 1, 1, nil, false},
		{"thread out of shape", "T2:r0=1", 2, 1, nil, false},
		{"negative thread", "T-1:r0=1", 2, 1, nil, false},
		{"register out of shape", "T0:r1=1", 2, 1, nil, false},
		{"negative register", "T0:r-1=1", 2, 1, nil, false},
	} {
		got, ok := ParseOutcome(tc.outcome, tc.threads, tc.regsPer)
		if ok != tc.ok || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: ParseOutcome(%q, %d, %d) = %v, %v; want %v, %v",
				tc.name, tc.outcome, tc.threads, tc.regsPer, got, ok, tc.want, tc.ok)
		}
	}
}
