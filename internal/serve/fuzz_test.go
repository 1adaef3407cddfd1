package serve

import (
	"context"
	"net/url"
	"testing"
)

// FuzzParsePairQuery drives the query boundary: any from/to/step the
// parser accepts must answer without panicking, with a non-inverted
// window and at most MaxPoints buckets.
func FuzzParsePairQuery(f *testing.F) {
	for _, c := range [][3]string{
		{"", "", ""},
		{"2h", "1h", ""},                // inverted
		{"1h", "1h", ""},                // empty
		{"-5h", "-1", "-3"},             // negative
		{"1000h", "2000h", ""},          // past the span
		{"", "", "1"},                   // finest step
		{"", "", "9223372036854775807"}, // overflowing step
		{"-9223372036854775808", "9223372036854775807", "1ns"}, // widest window
		{"3h", "", "-1h"},
	} {
		f.Add(c[0], c[1], c[2])
	}
	const maxPoints = 3
	be, err := OpenBackend(buildStore(f, 2, 8), BackendConfig{Interval: fixtureInterval, MaxPoints: maxPoints})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, from, to, step string) {
		q, err := ParsePairQuery(url.Values{"src": {"0"}, "dst": {"1"}, "from": {from}, "to": {to}, "step": {step}})
		if err != nil {
			return
		}
		resp, err := be.Series(context.Background(), q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		if resp.FromNS > resp.ToNS {
			t.Fatalf("%+v: answered inverted window [%d, %d)", q, resp.FromNS, resp.ToNS)
		}
		if len(resp.Points) > maxPoints {
			t.Fatalf("%+v: %d points, MaxPoints is %d (step %d)", q, len(resp.Points), maxPoints, resp.StepNS)
		}
	})
}
