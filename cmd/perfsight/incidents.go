package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"perfsight/internal/anomaly"
	"perfsight/internal/history"
)

// runIncidents talks to the anomaly pipeline of a flight-recorder
// controller: the correlated incident list, one incident's timeline, or
// a live follow of diagnosis events as they land.
//
//	perfsight incidents -endpoint http://localhost:9101
//	perfsight incidents -id 3
//	perfsight incidents -follow
func runIncidents(args []string) {
	fs := flag.NewFlagSet("incidents", flag.ExitOnError)
	endpoint := fs.String("endpoint", "http://localhost:9101", "flight-recorder controller base URL")
	state := fs.String("state", "all", "filter the list: open, resolved or all")
	limit := fs.Int("limit", 20, "newest incidents to print (0 = all)")
	id := fs.Int64("id", 0, "show one incident with its event timeline (0 = list)")
	follow := fs.Bool("follow", false, "after the listing, stream live diagnosis events until interrupted")
	fs.Parse(args)

	switch {
	case *id > 0:
		showIncident(*endpoint, *id)
	default:
		listIncidents(*endpoint, *state, *limit)
	}
	if *follow {
		followIncidents(*endpoint)
	}
}

func listIncidents(endpoint, state string, limit int) {
	q := url.Values{"state": {state}}
	if limit > 0 {
		q.Set("limit", fmt.Sprint(limit))
	}
	var resp struct {
		Incidents []anomaly.Incident `json:"incidents"`
		Open      int                `json:"open"`
	}
	if err := getJSON(endpoint, "/incidents", q, &resp); err != nil {
		fatalf("perfsight incidents: %v", err)
	}
	fmt.Printf("%d incident(s), %d open\n", len(resp.Incidents), resp.Open)
	for _, in := range resp.Incidents {
		printIncident(in, false)
	}
}

func showIncident(endpoint string, id int64) {
	var resp struct {
		Incident anomaly.Incident `json:"incident"`
		Events   []history.Event  `json:"events"`
	}
	if err := getJSON(endpoint, fmt.Sprintf("/incidents/%d", id), nil, &resp); err != nil {
		fatalf("perfsight incidents: %v", err)
	}
	printIncident(resp.Incident, true)
	if len(resp.Events) == 0 {
		fmt.Println("  (member events no longer retained by the journal)")
		return
	}
	fmt.Printf("  timeline (%d of %d events retained):\n", len(resp.Events), resp.Incident.EventCount)
	for _, ev := range resp.Events {
		printEvent(ev)
	}
}

func printIncident(in anomaly.Incident, detail bool) {
	span := fmt.Sprintf("%s .. %s", fmtTS(in.FirstSeen), fmtTS(in.LastSeen))
	if in.ResolvedAt > 0 {
		span += " resolved " + fmtTS(in.ResolvedAt)
	}
	fmt.Printf("#%-4d %-9s %-32s on %-10s %3d event(s)  %s\n", in.ID, in.State, in.RootCause, fmt.Sprint(in.Machines), in.EventCount, span)
	if in.DetectionNS > 0 {
		fmt.Printf("      detected %v after last known-good sample\n", time.Duration(in.DetectionNS))
	}
	fmt.Printf("      %s\n", in.Summary)
	if detail {
		// Several tenants in one scope is one problem in shared
		// infrastructure (§7.4).
		shared := ""
		if len(in.Tenants) > 1 {
			shared = " (shared)"
		}
		fmt.Printf("      tenants:  %v%s\n", in.Tenants, shared)
		fmt.Printf("      elements: %v\n", in.Elements)
	}
}

// followIncidents streams /events?follow=1 (NDJSON, one event per line,
// pushed from the journal's subscription fan-out) until the server goes
// away or the user interrupts.
func followIncidents(endpoint string) {
	u := endpoint + "/events?" + url.Values{"follow": {"1"}}.Encode()
	// No client timeout: this is a deliberately long-lived stream.
	resp, err := http.Get(u)
	if err != nil {
		fatalf("perfsight incidents -follow: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatalf("perfsight incidents -follow: %s", resp.Status)
	}
	fmt.Println("following live diagnosis events (ctrl-c to stop)...")
	dec := json.NewDecoder(resp.Body)
	for {
		var ev history.Event
		if err := dec.Decode(&ev); err != nil {
			fatalf("perfsight incidents -follow: stream ended: %v", err)
		}
		if ev.IncidentID > 0 {
			fmt.Printf("[incident #%d]\n", ev.IncidentID)
		}
		printEvent(ev)
	}
}

func fmtTS(ns int64) string {
	return time.Unix(0, ns).UTC().Format(time.RFC3339)
}
