# Pre-PR check: everything here must pass before sending a change.
#   make check        vet + build + race tests; every alloc budget and floor
#                     is a Test* that runs here (and under `go test ./...`);
#                     then 5 s of fuzzing per text-parser target, then every
#                     example and perfsight -scenario demo run to exit 0
#   make bench-smoke  vet + test the nested bench/ module, which the root
#                     `go test ./...` does not reach
#   make bench        every micro-benchmark's output; gates nothing

GO ?= go

.PHONY: check bench bench-smoke

check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -run '^$$' -fuzz FuzzParseNetDev -fuzztime 5s ./internal/procfs
	$(GO) test -run '^$$' -fuzz FuzzParseSoftnet -fuzztime 5s ./internal/procfs
	$(GO) test -run '^$$' -fuzz FuzzStatLine -fuzztime 5s ./internal/agent
	for e in quickstart contention chain-rootcause multitenant; do $(GO) run ./examples/$$e >/dev/null || exit 1; done
	for s in membw backlog bottleneck chain; do $(GO) run ./cmd/perfsight -scenario $$s >/dev/null || exit 1; done

bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1s -benchmem ./...
