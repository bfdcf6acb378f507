package autotune

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzStoreReplay feeds arbitrary bytes to the journal replay, the
// store's untrusted load boundary. Replay must never panic. When it
// accepts the bytes, the intact prefix it reports ends on a line
// boundary within the data, and replaying just that prefix on a fresh
// store accepts all of it and rebuilds the same index: the truncation
// OpenStore applies to a torn tail loses no record.
func FuzzStoreReplay(f *testing.F) {
	var journal []byte
	for i, cycles := range []int64{100, 90} {
		rec := testRecord(uint64(i%2), cycles)
		rec.Schema = SchemaVersion
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		journal = append(append(journal, line...), '\n')
	}
	f.Add([]byte{})
	f.Add(journal)
	f.Add(append(bytes.Clone(journal), "\n  \n"...))
	f.Add(append(bytes.Clone(journal), `{"schema":1,"key":{"pi`...))
	f.Add(append(bytes.Clone(journal), "not json at all\n"...))
	f.Add(append([]byte("garbage line\n"), journal...))
	f.Add([]byte(`{"schema":99,"key":{"pipeline":1}}` + "\n"))
	f.Add([]byte("null\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &Store{index: map[Key]Record{}}
		good, err := s.replay(data)
		if err != nil {
			return
		}
		if good < 0 || good > int64(len(data)) || (good > 0 && data[good-1] != '\n') {
			t.Fatalf("replay reported intact prefix %d of %d bytes, not on a line boundary", good, len(data))
		}
		again := &Store{index: map[Key]Record{}}
		good2, err := again.replay(data[:good])
		if err != nil {
			t.Fatalf("replaying the intact prefix failed: %v", err)
		}
		if good2 != good {
			t.Fatalf("intact prefix of %d bytes replays to %d", good, good2)
		}
		if !reflect.DeepEqual(s.index, again.index) {
			t.Fatalf("intact prefix rebuilds a different index:\nfull   %v\nprefix %v", s.index, again.index)
		}
	})
}
