package serve

import "testing"

// A watcher that has seen nothing polls with the zero cursor (the
// events route's default after=0) and must get the very first record.
func TestFeedPollZeroReturnsFirstRecord(t *testing.T) {
	f := NewFeed(nil)
	if _, err := f.Write([]byte(`{"kind":"start","job":"job-000"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	recs, cursor := f.Poll(0, 0)
	if len(recs) != 1 || string(recs[0].Event) != `{"kind":"start","job":"job-000"}` {
		t.Fatalf("Poll(0, 0) = %v, want the first record", recs)
	}
	if cursor != recs[0].Seq {
		t.Fatalf("cursor = %d, want %d", cursor, recs[0].Seq)
	}
}
