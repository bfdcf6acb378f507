package obs

import (
	"errors"
	"io"
	"net/http"
	"strconv"
)

// StatusClientClosedRequest is nginx's non-standard 499 "client closed
// request": the caller went away, so no response will be read. It is
// distinct from 504 so dashboards separate server-side timeouts from
// client aborts.
const StatusClientClosedRequest = 499

// ReadBody reads r's body under a limit of max bytes. On failure it
// answers 413 for an oversized body and 400 otherwise, and reports
// false.
func ReadBody(w http.ResponseWriter, r *http.Request, max int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, max))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		}
		return nil, false
	}
	return body, true
}

// StatusRecorder is an http.ResponseWriter that records the status code
// and body size of the response written through it, for access logs and
// per-status request counters.
type StatusRecorder struct {
	http.ResponseWriter
	Status int   // the first status written; 200 if the handler never set one
	Bytes  int64 // body bytes written
	wrote  bool
}

// NewStatusRecorder wraps w.
func NewStatusRecorder(w http.ResponseWriter) *StatusRecorder {
	return &StatusRecorder{ResponseWriter: w, Status: http.StatusOK}
}

// WriteHeader records the first status code and forwards every call.
func (sr *StatusRecorder) WriteHeader(code int) {
	if !sr.wrote {
		sr.Status = code
		sr.wrote = true
	}
	sr.ResponseWriter.WriteHeader(code)
}

// Write forwards b and counts the bytes written.
func (sr *StatusRecorder) Write(b []byte) (int, error) {
	sr.wrote = true
	n, err := sr.ResponseWriter.Write(b)
	sr.Bytes += int64(n)
	return n, err
}

// Unwrap exposes the underlying writer so http.ResponseController can
// reach its Flusher (the streaming endpoints flush per frame).
func (sr *StatusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// statusLabels holds the decimal text of every three-digit status code,
// so labeling a request by its status does not allocate.
var statusLabels = func() (t [600]string) {
	for code := 100; code < len(t); code++ {
		t[code] = strconv.Itoa(code)
	}
	return t
}()

// StatusLabel returns code as a label value.
func StatusLabel(code int) string {
	if code >= 100 && code < len(statusLabels) {
		return statusLabels[code]
	}
	return strconv.Itoa(code)
}
