package serve

import (
	"bytes"
	"encoding/json"
	"net/http"

	"delrep/internal/jobapi"
	"delrep/internal/simspec"
)

// SharedResult is a done result as the jobs that share it hold it: the
// decoded result and its bytes as they appear in an indented JobView,
// rendered once, by NewSharedResult. The daemon keeps one per runner
// future and the coordinator one per content address, so a hot reply
// renders only its per-job fields and splices these bytes in.
type SharedResult struct {
	Result *simspec.Result
	json   []byte // json.MarshalIndent(Result, "  ", "  ")
}

// NewSharedResult renders r. A result the encoder refuses (a NaN or
// infinite float) is an error: the job that produced it fails with it.
func NewSharedResult(r *simspec.Result) (*SharedResult, error) {
	b, err := json.MarshalIndent(r, "  ", "  ")
	if err != nil {
		return nil, err
	}
	return &SharedResult{Result: r, json: b}, nil
}

// writeView answers one job view, byte for byte as writeJSON would:
// the per-job fields go through writeJSON's encoder, then the result's
// shared bytes and the worker follow, in JobView's field order. A
// non-nil res is v.Result as viewLocked found it rendered.
func writeView(w http.ResponseWriter, status int, v jobapi.JobView, res *SharedResult) {
	worker := v.Worker
	v.Worker = ""
	if res != nil {
		v.Result = nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	// What is left of a view rendered by viewLocked is strings and
	// integers: it always encodes.
	_ = enc.Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b := buf.Bytes()
	if res == nil && worker == "" {
		w.Write(b)
		return
	}
	b = bytes.TrimSuffix(b, []byte("\n}\n"))
	if res != nil {
		w.Write(append(b, ",\n  \"result\": "...))
		w.Write(res.json)
		b = b[:0]
	}
	if worker != "" {
		q, _ := json.Marshal(worker) // escapes HTML, as the encoder does
		b = append(append(b, ",\n  \"worker\": "...), q...)
	}
	w.Write(append(b, "\n}\n"...))
}
