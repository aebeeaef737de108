package main

import (
	"context"
	"fmt"
	"io"

	"starlink"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/upnp"
	"starlink/internal/realnet"
	"starlink/internal/registry"
)

// The case study's one logical service, spelled per protocol, and a
// distinct URL for each legacy service so a reply names who produced
// it: a bridged reply carries the far-side service's URL, a native
// reply the near-side peer's.
const (
	slpType  = "service:printer"
	upnpType = "urn:printer"
	dnsName  = "printer.local"

	bonjourURL = "service:printer://127.0.0.1:5150/bonjour-service"
	upnpURL    = "http://127.0.0.1:5151/upnp-service"
	slpURL     = "service:printer://127.0.0.1:5152/slp-service"

	// upnpHTTPPort serves the legacy UPnP device's description.
	upnpHTTPPort = 18431
)

var upnpLocation = fmt.Sprintf("http://127.0.0.1:%d%s", upnpHTTPPort, upnp.DescriptionPath)

// peers starts the zero-delay legacy services a workload's cases
// bridge to.
type peers struct {
	closers []io.Closer
}

func (p *peers) close() {
	for _, c := range p.closers {
		_ = c.Close()
	}
}

func startPeers(rt *realnet.Runtime, bonjour, upnpDev, slpSA bool) (*peers, error) {
	p := &peers{}
	node, err := rt.NewNode("legacy-services")
	if err != nil {
		return nil, err
	}
	p.closers = append(p.closers, node)
	fail := func(err error) (*peers, error) {
		p.close()
		return nil, err
	}
	if bonjour {
		r, err := dnssd.NewResponder(node, dnsName, bonjourURL)
		if err != nil {
			return fail(err)
		}
		p.closers = append([]io.Closer{r}, p.closers...)
	}
	if upnpDev {
		d, err := upnp.NewDevice(node, upnpType, upnpURL, upnpHTTPPort)
		if err != nil {
			return fail(err)
		}
		p.closers = append([]io.Closer{d}, p.closers...)
	}
	if slpSA {
		sa, err := slp.NewServiceAgent(node, slpType, slpURL)
		if err != nil {
			return fail(err)
		}
		p.closers = append([]io.Closer{sa}, p.closers...)
	}
	return p, nil
}

// deploySpec is the dispatcher a workload deploys.
type deploySpec struct {
	cases []string
	// fast lists the kinds whose first exchange verifies a set-up: one
	// per hosted case whose exchange completes without a protocol
	// convergence window.
	fast []kind
}

// deploy stands up a dispatcher on a framework sharing reg.
func deploy(tr *tracer, parent int32, rt *starlink.Runtime, reg *starlink.Registry, spec deploySpec) (*starlink.Dispatcher, error) {
	sp := tr.begin("provision.deploy", parent, 0)
	defer tr.end(sp)
	fw := starlink.NewWithRegistry(rt, reg)
	return fw.DeployDispatcher(context.Background(), "127.0.0.1", spec.cases)
}

// loadRegistry builds a fresh builtin registry and compiles the given
// cases, as a cold deploy must.
func loadRegistry(tr *tracer, parent int32, cases []string) (*starlink.Registry, error) {
	sp := tr.begin("registry.load", parent, 0)
	defer tr.end(sp)
	reg, err := starlink.BuiltinRegistry()
	if err != nil {
		return nil, err
	}
	r := reg.Backend().(*registry.Registry)
	for _, c := range cases {
		if _, err := r.Compiled(c); err != nil {
			return nil, err
		}
	}
	return reg, nil
}
