package svto_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"svto/pkg/svto"
)

// FuzzValidate feeds arbitrary bytes through the job-request decoding that
// leakoptd's POST /v1/jobs performs (a JSON decoder that rejects unknown
// fields) and hands every decoded Request to svto.Validate, which parses
// any inline netlist.  Neither step may panic on untrusted input.
func FuzzValidate(f *testing.F) {
	f.Add([]byte(`{"design":{"benchmark":"c432"},"search":{"algorithm":"heuristic1","penalty":0.05}}`))
	f.Add([]byte(`{"design":{"bench":"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n","name":"tiny"},` +
		`"library":{"policy":"2opt"},"search":{"algorithm":"exact","penalty":0.1,"workers":1}}`))
	f.Add([]byte(`{"design":{"verilog":"module m (a, y); input a; output y; not u (y, a); endmodule","fuse":true},` +
		`"search":{"algorithm":"heuristic2","time_limit_sec":1,"max_leaves":100}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req svto.Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		_ = svto.Validate(req)
	})
}
