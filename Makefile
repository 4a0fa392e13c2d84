# Pre-PR check: everything here must pass before sending a change.
#   make check        vet + build + race tests; every alloc budget and floor
#                     is a Test* that runs here (and under `go test ./...`);
#                     then 5 s of fuzzing per parser and decoder target, then
#                     every example and perfsight -scenario demo run to exit 0
#   make bench-smoke  vet + test the nested bench/ module, which the root
#                     `go test ./...` does not reach
#   make bench-correct  every benchmark workload for 2 s at seeds 1 and 7,
#                     untraced and traced; fails unless every run reports
#                     "correct": true and "failed": 0
#   make bench        every micro-benchmark's output; gates nothing

GO ?= go

.PHONY: check bench bench-smoke bench-correct

check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -run '^$$' -fuzz FuzzParseNetDev -fuzztime 5s ./internal/procfs
	$(GO) test -run '^$$' -fuzz FuzzParseSoftnet -fuzztime 5s ./internal/procfs
	$(GO) test -run '^$$' -fuzz FuzzStatLine -fuzztime 5s ./internal/agent
	$(GO) test -run '^$$' -fuzz FuzzDecodeSketch -fuzztime 5s ./internal/dataplane
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzV2Decode$$' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzRecordJSON$$' -fuzztime 5s ./internal/wire
	for e in quickstart contention chain-rootcause multitenant; do $(GO) run ./examples/$$e >/dev/null || exit 1; done
	for s in membw backlog bottleneck chain; do $(GO) run ./cmd/perfsight -scenario $$s >/dev/null || exit 1; done

bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench-correct:
	mkdir -p bench/out
	for s in 1 7; do for t in 0 1; do \
		out=bench/out/correct-seed$$s-trace$$t.jsonl; \
		bash bench/run.sh --workload all --seconds 2 --seed $$s --trace $$t >$$out || exit 1; \
		runs=$$(grep -c '"correct":' $$out); \
		good=$$(grep '"correct":true' $$out | grep -c '"failed":0[,}]'); \
		echo "seed $$s trace $$t: $$good of $$runs workloads correct with 0 failed"; \
		[ $$runs -gt 0 ] && [ $$good -eq $$runs ] || exit 1; \
	done; done

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1s -benchmem ./...
