package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzRegister drives /fleet/register with arbitrary query strings
// under three methods, each input on a fresh router. The handler must
// not panic and must answer 200, 400 or 405. A 200 means the
// /fleet/workers listing is valid JSON and lists the registered
// address in the registered state (ready when the query names none).
func FuzzRegister(f *testing.F) {
	f.Add(uint8(0), "addr=http://127.0.0.1:9&state=ready")
	f.Add(uint8(0), "addr=http://127.0.0.1:9")
	f.Add(uint8(0), "addr=https://[::1]:8443/base?x=1&state=degraded")
	f.Add(uint8(0), "addr=http://h:2&addr=http://h:3&state=backlog&state=ready")
	f.Add(uint8(0), "addr=http://x:1&state=wat")
	f.Add(uint8(0), "addr=http://x:1&state=down")
	f.Add(uint8(0), "addr=not-a-url")
	f.Add(uint8(0), "addr=A://\xff")
	f.Add(uint8(0), "addr=http://%zz&state=draining;")
	f.Add(uint8(0), "")
	f.Add(uint8(1), "addr=http://127.0.0.1:9&state=ready")
	f.Add(uint8(2), "addr=http://127.0.0.1:9&state=draining")

	methods := []string{http.MethodPost, http.MethodGet, http.MethodPut}
	f.Fuzz(func(t *testing.T, m uint8, query string) {
		rt := New(Config{WorkerTTL: time.Hour, SweepInterval: time.Hour})
		defer rt.Close()
		method := methods[int(m)%len(methods)]
		r := httptest.NewRequest(method, "/fleet/register", nil)
		r.URL.RawQuery = query
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, r)
		switch w.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusMethodNotAllowed:
			return
		default:
			t.Fatalf("%s /fleet/register?%s = %d, want 200, 400 or 405", method, query, w.Code)
		}
		if method != http.MethodPost {
			t.Fatalf("%s /fleet/register?%s = 200, want 405", method, query)
		}

		q := r.URL.Query()
		addr, state := q.Get("addr"), q.Get("state")
		if state == "" {
			state = StateReady
		}
		lw := httptest.NewRecorder()
		rt.ServeHTTP(lw, httptest.NewRequest(http.MethodGet, "/fleet/workers", nil))
		var listing struct {
			Workers []WorkerStatus `json:"workers"`
		}
		if err := json.Unmarshal(lw.Body.Bytes(), &listing); err != nil {
			t.Fatalf("/fleet/workers after registering %q is not valid JSON: %v\n%s", addr, err, lw.Body)
		}
		if len(listing.Workers) != 1 || listing.Workers[0].Addr != addr || listing.Workers[0].State != state {
			t.Fatalf("/fleet/workers after registering %q in state %q lists %+v", addr, state, listing.Workers)
		}
	})
}
