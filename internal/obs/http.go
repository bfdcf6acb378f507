package obs

import (
	"net/http"
	"strconv"
)

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
