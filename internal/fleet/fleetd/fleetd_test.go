package fleetd

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzFleetdSweepRequest throws hostile bodies at the POST /fleet/sweep
// decoder. It must never panic, and it fails closed: an accepted body is
// one JSON value (or empty) with no bytes after it and only the
// request's own fields, appending anything to it or adding an unknown
// field gets it refused, and the decoded request re-encodes and decodes
// back to itself.
func FuzzFleetdSweepRequest(f *testing.F) {
	for _, seed := range []string{
		``, `{}`, `null`, `{"wait": true}`,
		`{"class": "TinyLX", "wait": true, "freshness": "per-device", "nonce": 7, "nonce_seed": 9}`,
		`{"wait": true, "nonceseed": 7}`, `{"wait": true} trailing`, `{}{}`, `[1]`, `{"nonce": -1}`,
	} {
		f.Add([]byte(seed))
	}
	fields := []string{"class", "wait", "freshness", "nonce", "nonce_seed"}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req sweepRequest
		if decodeSweepRequest(bytes.NewReader(body), &req) != nil {
			return
		}
		trimmed := bytes.TrimSpace(body)
		if len(trimmed) > 0 && !json.Valid(trimmed) {
			t.Fatalf("accepted %q: not a single JSON value", body)
		}
		var obj map[string]json.RawMessage
		if json.Unmarshal(trimmed, &obj) == nil {
			for k := range obj {
				known := false
				for _, name := range fields {
					known = known || strings.EqualFold(k, name)
				}
				if !known {
					t.Fatalf("accepted %q with unknown field %q", body, k)
				}
			}
		}
		if len(trimmed) > 0 {
			var again sweepRequest
			if decodeSweepRequest(bytes.NewReader(append(bytes.Clone(body), " {}"...)), &again) == nil {
				t.Fatalf("accepted %q followed by a second object", body)
			}
		}
		if obj != nil {
			extra := append([]byte(`{"unknown_field": 1,`), trimmed[1:]...)
			var again sweepRequest
			if decodeSweepRequest(bytes.NewReader(extra), &again) == nil {
				t.Fatalf("accepted %q", extra)
			}
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", req, err)
		}
		var back sweepRequest
		if err := decodeSweepRequest(bytes.NewReader(enc), &back); err != nil {
			t.Fatalf("re-encoded %s refused: %v", enc, err)
		}
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("%q decodes to %+v, its re-encoding %s to %+v", body, req, enc, back)
		}
	})
}
