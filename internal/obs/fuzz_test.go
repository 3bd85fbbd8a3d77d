package obs

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// FuzzReadJSONL fuzzes the trace reader, the parser of outside input that
// vrobs, vrdiff and vrtrace sit on. Arbitrary bytes must never panic it,
// and any finite event of any kind must survive WriteJSONL then ReadJSONL
// bit for bit.
func FuzzReadJSONL(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteJSONL(&seed, sampleEvents()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), int64(0), uint8(0), uint8(0), int32(-1), int32(-1), int32(-1), 0.0)
	for k := Kind(1); k < kindCount; k++ {
		f.Add([]byte(`{"t":1,"k":"`+k.String()+`","n":-1,"j":-1,"a":3,"v":0.5,"f":0}`),
			int64(k)*1e9, uint8(k), uint8(k), int32(k), int32(-1), int32(k), float64(k)/3)
	}
	f.Add([]byte("{\"t\":1e99}\n\n{"), int64(-1), uint8(255), uint8(255), int32(math.MinInt32), int32(math.MaxInt32), int32(0), -0.0)
	f.Fuzz(func(t *testing.T, data []byte, at int64, kind, flags uint8, node, job, aux int32, val float64) {
		_, _ = ReadJSONL(bytes.NewReader(data))

		if math.IsNaN(val) || math.IsInf(val, 0) {
			return
		}
		ev := Event{
			At:    time.Duration(at),
			Kind:  Kind(1 + int(kind)%int(kindCount-1)),
			Flags: flags,
			Node:  node,
			Job:   job,
			Aux:   aux,
			Val:   val,
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, []Event{ev}); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("%+v: read back: %v", ev, err)
		}
		if len(back) != 1 {
			t.Fatalf("%+v: read back %d events", ev, len(back))
		}
		got := back[0]
		if got.At != ev.At || got.Kind != ev.Kind || got.Flags != ev.Flags || got.Node != ev.Node ||
			got.Job != ev.Job || got.Aux != ev.Aux || math.Float64bits(got.Val) != math.Float64bits(ev.Val) {
			t.Fatalf("round trip changed the event:\n wrote %+v\n read  %+v", ev, got)
		}
	})
}
