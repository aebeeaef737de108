package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"starlink"
	"starlink/internal/bitio"
	"starlink/internal/mdl"
	"starlink/internal/merge"
	"starlink/internal/message"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/httpx"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/ssdp"
	"starlink/internal/protocols/upnp"
	"starlink/internal/provision"
	"starlink/internal/registry"
	"starlink/internal/translation"
)

// Ledger layers, in pipeline order.
const (
	lClassify = iota
	lParse
	lTranslate
	lCompose
	numLedger
)

var ledgerNames = [numLedger]string{"provision.classify", "parser.parse", "translation.translate", "composer.compose"}

// ledgerRow is one case's per-exchange cost of each codec layer,
// measured by replaying the run's own wire payloads through the same
// compiled artifacts the engine uses.
type ledgerRow struct {
	ns     [numLedger]float64 // per exchange
	allocs [numLedger]float64 // per exchange
}

// classify mirrors the dispatcher's signature-index classification
// from the exported signature description.
func classify(si *provision.SignatureInfo, data []byte) (string, bool) {
	switch si.Dialect {
	case mdl.DialectBinary:
		if len(data) < si.MinBytes {
			return "", false
		}
		var r bitio.Reader
		r.Init(data)
		if r.Skip(si.BitOff) != nil {
			return "", false
		}
		v, err := r.ReadBits(si.Bits)
		if err != nil {
			return "", false
		}
		for _, rule := range si.Rules {
			if rule.IntVal == v {
				return rule.Message, true
			}
		}
	case mdl.DialectText:
		rest := data
		for _, d := range si.LeadDelims {
			i := bytes.Index(rest, d)
			if i < 0 {
				return "", false
			}
			rest = rest[i+len(d):]
		}
		i := bytes.Index(rest, si.RuleDelim)
		if i < 0 {
			return "", false
		}
		for _, rule := range si.Rules {
			if string(rest[:i]) == rule.TextVal {
				return rule.Message, true
			}
		}
	}
	return "", false
}

// replayer walks one case's compiled program over captured payloads.
type replayer struct {
	cc      *registry.CompiledCase
	sigs    map[string]*provision.SignatureInfo
	inputs  map[string][]byte
	funcs   *translation.FuncRegistry
	vars    map[string]string
	history map[string]*message.Message
	lookup  func(string) *message.Message
	bridged string
}

func newReplayer(reg *starlink.Registry, caseName string, inputs map[string][]byte, bridged string) (*replayer, error) {
	r := reg.Backend().(*registry.Registry)
	cc, err := r.Compiled(caseName)
	if err != nil {
		return nil, err
	}
	rp := &replayer{
		cc:      cc,
		sigs:    map[string]*provision.SignatureInfo{},
		inputs:  inputs,
		funcs:   translation.NewFuncRegistry(),
		vars:    map[string]string{"bridge.host": "127.0.0.1"},
		history: map[string]*message.Message{},
		bridged: bridged,
	}
	rp.lookup = func(name string) *message.Message { return rp.history[name] }
	for proto, codec := range cc.Codecs {
		rp.sigs[proto] = provision.DeriveSignatureInfo(codec.Spec)
	}
	for _, st := range cc.Program {
		if st.Kind == merge.StepRecv && inputs[st.Message] == nil {
			return nil, fmt.Errorf("ledger: %s: no captured %s payload", caseName, st.Message)
		}
	}
	return rp, nil
}

// once replays one exchange, running each step up to and including
// layer last, and adds each layer's elapsed time to ns (when not nil).
// Messages sent later in the program need the parsed ones, so a replay
// cut short at a layer still runs the earlier layers of every step.
// It checks that every payload classifies and parses as the program
// expects and, when it composes, that the last reply to the client
// carries the far-side URL.
func (rp *replayer) once(last int, ns *[numLedger]int64) error {
	var reply []byte
	defer func() {
		for k, m := range rp.history {
			m.Release()
			delete(rp.history, k)
		}
	}()
	add := func(l int, t0, t1 time.Time) {
		if ns != nil {
			ns[l] += t1.Sub(t0).Nanoseconds()
		}
	}
	for _, st := range rp.cc.Program {
		switch st.Kind {
		case merge.StepRecv:
			data := rp.inputs[st.Message]
			si := rp.sigs[st.Protocol]
			t0 := time.Now()
			name, ok := "", false
			if si != nil {
				name, ok = classify(si, data)
			}
			t1 := time.Now()
			add(lClassify, t0, t1)
			if si != nil && (!ok || name != st.Message) {
				return fmt.Errorf("ledger: %s payload classified as %q", st.Message, name)
			}
			if last < lParse {
				continue
			}
			msg, err := rp.cc.Codecs[st.Protocol].Parser.Parse(data)
			add(lParse, t1, time.Now())
			if err != nil {
				return fmt.Errorf("ledger: parse %s: %w", st.Message, err)
			}
			if old := rp.history[st.Message]; old != nil {
				old.Release()
			}
			rp.history[st.Message] = msg
		case merge.StepSend:
			if last < lTranslate {
				continue
			}
			out := message.NewPooled(st.Protocol, st.Message)
			t0 := time.Now()
			err := rp.cc.Merged.Logic.Apply(out, translation.Env{Lookup: rp.lookup, Vars: rp.vars}, rp.funcs)
			t1 := time.Now()
			add(lTranslate, t0, t1)
			if err != nil {
				out.Release()
				return fmt.Errorf("ledger: translate %s: %w", st.Message, err)
			}
			if last >= lCompose {
				wire, err := rp.cc.Codecs[st.Protocol].Composer.Compose(out)
				add(lCompose, t1, time.Now())
				if err != nil {
					out.Release()
					return fmt.Errorf("ledger: compose %s: %w", st.Message, err)
				}
				if st.ReplyToOrigin {
					reply = wire
				}
			}
			if old := rp.history[st.Message]; old != nil {
				old.Release()
			}
			rp.history[st.Message] = out
		}
	}
	if last >= lCompose && !bytes.Contains(reply, []byte(rp.bridged)) {
		return fmt.Errorf("ledger: %s: last reply to the client lacks %s", rp.cc.Case, rp.bridged)
	}
	return nil
}

// measure replays n exchanges and returns the per-exchange cost of
// each layer. Allocations are counted by replaying growing prefixes of
// the pipeline, so the per-layer counts add up to the exchange's.
func (rp *replayer) measure(tr *tracer, parent int32, n int) (ledgerRow, error) {
	var row ledgerRow
	var ns [numLedger]int64
	if err := rp.once(numLedger-1, &ns); err != nil { // warm pools and caches
		return row, err
	}
	ns = [numLedger]int64{}
	for i := 0; i < n; i++ {
		sp := tr.begin("ledger.exchange", parent, int64(i))
		err := rp.once(numLedger-1, &ns)
		tr.end(sp)
		if err != nil {
			return row, err
		}
	}
	for l := 0; l < numLedger; l++ {
		row.ns[l] = float64(ns[l]) / float64(n)
	}
	// Whole-exchange allocations, then the split per layer from
	// replaying only the stages up to and including each layer.
	total := rp.allocsUpTo(numLedger-1, n)
	prev := 0.0
	for l := 0; l < numLedger; l++ {
		a := total
		if l < numLedger-1 {
			a = rp.allocsUpTo(l, n)
		}
		row.allocs[l] = a - prev
		prev = a
	}
	return row, nil
}

// allocsUpTo counts heap allocations per exchange of a replay that
// stops each step after layer last: classify only, classify+parse, and
// so on.
func (rp *replayer) allocsUpTo(last, n int) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		_ = rp.once(last, nil)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// ledgerInputs completes the generator's captured payloads with the
// messages it never saw on the wire in this run — the HTTP messages of
// the UPnP cases, and any native reply no request drew — composed
// exactly as the legacy stacks put them on the wire.
func ledgerInputs(captured map[string][]byte) (map[string][]byte, error) {
	dns, err := (&dnssd.Message{Flags: dnssd.FlagResp, Answers: []dnssd.Answer{
		{Name: dnsName, AType: dnssd.TypeTXT, TTL: 120, RDATA: bonjourURL}}}).Marshal()
	if err != nil {
		return nil, err
	}
	in := map[string][]byte{
		"HTTPGet": httpx.MarshalRequest(upnp.DescriptionPath, "127.0.0.1:8080"),
		"HTTPOk": httpx.MarshalResponse(200, "OK", "text/xml",
			upnp.DescriptionXML("Starlink test device", upnpType, upnpURL)),
		"DNSResponse": dns,
		"SSDPResponse": ssdp.NewResponse(upnpType, upnpLocation,
			"uuid:starlink-"+strings.ReplaceAll(upnpType, ":", "-")).Marshal(),
		"SLPSrvReply": (&slp.SrvRply{Header: slp.Header{LangTag: "en"}, URLs: []string{slpURL}}).Marshal(),
	}
	for k, v := range captured {
		in[k] = v
	}
	return in, nil
}
