# How this directory was written: a paruleld built from commit e24f1e2 (PR 17,
# the last whose log went through json.Marshal of the Record structs), driven
# over loopback. Kept for the record; TestParentWrittenDataDirRecovers reads
# the files, it does not run this.
#   BIN=<paruleld at e24f1e2> OUT=<scratch dir> bash gen.sh
set -euo pipefail
HERE=$(cd "$(dirname "$0")" && pwd)
D=$OUT/data
A=127.0.0.1:18467
$BIN -addr $A -data-dir $D -fsync always -checkpoint-every 6 -run-timeout 5s >$OUT/daemon.log 2>&1 &
PID=$!
trap "kill $PID 2>/dev/null || true" EXIT
for i in $(seq 1 50); do curl -sf $A/healthz >/dev/null && break; sleep 0.1; done
api=$A/api/v1/sessions
post() { curl -sf -X POST "$1" -d "$2"; echo; }

# s1: quickstart, log only (no checkpoint): create, facts, run, retract, batch, async job markers
post $api '{"program":"quickstart","workers":2}'
post $api/s1/facts '{"facts":[{"template":"person","fields":{"name":"ada","age":36}},{"template":"person","fields":{"name":"grace","age":45}},{"template":"person","fields":{"name":"kid","age":9}}]}'
post $api/s1/run '{"timeout_ms":5000}'
post $api/s1/retract '{"template":"greeted","fields":{"name":"ada"}}'

# s2: every value kind, explicit nulls, ttl, batch, stream, import; crosses the checkpoint threshold
SRC='(literalize t a b c d e)\n(literalize ev n state)\n(literalize done n)\n(ttl ev 2)\n(rule finish\n  <e> <- (ev ^n <n> ^state new)\n-->\n  (make done ^n <n>)\n  (modify <e> ^state old))\n'
post $api "{\"source\":\"$SRC\",\"workers\":1}"
post $api/s2/facts '{"facts":[{"template":"t","fields":{"a":1,"b":2.5,"c":"cafe","d":{"str":"two\nlines \"q\" \\ / <&>"},"e":null}},{"template":"t","fields":{"a":0,"b":-0.0,"c":"plain","d":{"str":""},"e":true}},{"template":"t","fields":{"a":-9223372036854775808,"b":1e21,"c":{"sym":"typed"},"e":{"float":3}}},{"template":"t"},{"template":"ev","fields":{"n":7,"state":"idle"},"ttl":5}]}'
post $api/s2/batch '{"ops":[{"op":"assert","facts":[{"template":"ev","fields":{"n":1,"state":"new"}},{"template":"ev","fields":{"n":2,"state":"new"},"ttl":1}]},{"op":"run","timeout_ms":5000},{"op":"tick","ticks":2},{"op":"retract","template":"t","fields":{"a":0,"e":true}}]}'
curl -sf -X POST $api/s2/stream --data-binary $'{"facts":[{"template":"ev","fields":{"n":10,"state":"new"}}],"run":true}\n{"facts":[{"template":"ev","fields":{"n":11,"state":"new"}}],"ticks":2}\n'
post $api/s2/snapshot $'(wm\n  (t ^a 5 ^c imported)\n  (done ^n 99))\n'
post $api/s2/facts '{"facts":[{"template":"t","fields":{"a":100}}]}'
post $api/s2/facts '{"facts":[{"template":"t","fields":{"a":101}}]}'
post $api/s2/run '{}'
post $api/s2/facts '{"facts":[{"template":"t","fields":{"a":102,"d":{"str":"after the checkpoint"}}}]}'
post $api/s2/retract '{"template":"t","fields":{"a":100}}'

# s3: waltz, one batch of a cube's facts and a run
post $api '{"program":"waltz","workers":1}'
post $api/s3/batch "$(cat $HERE/waltz_batch.json)"

# s4: symbols no checkpoint can hold (spaces, markup, the empty symbol), so log only
post $api '{"source":"(literalize t a b)","workers":1}'
post $api/s4/facts '{"facts":[{"template":"t","fields":{"a":"sym <&> \u2028 \ud83d\ude00","b":""}},{"template":"t","fields":{"b":{"sym":"a b"},"a":null}},{"template":"t","fields":{"a":"caf\u00e9","b":{"str":"sep \u2028 \u2029 end"}}}]}'
post $api/s4/retract '{"template":"t","fields":{"b":""}}'

# an async job on s1: queued + done markers
post "$api/s1/run?async=1" '{"timeout_ms":5000}'
post "$api/s3/run?async=1" '{"timeout_ms":5000}'
sleep 0.5
post $api/s1/batch '{"ops":[{"op":"assert","facts":[{"template":"person","fields":{"name":"late","age":70}}]},{"op":"run"}]}'

for s in s1 s2 s3 s4; do
  curl -sf $api/$s > $OUT/$s.info.json
  curl -sf $api/$s/snapshot > $OUT/$s.snapshot.txt
  curl -sf $api/$s/wm > $OUT/$s.wm.json
  curl -sf "$api/$s/proof?seq=2" > $OUT/$s.proof.json || true
done
kill -TERM $PID
wait $PID || true
trap - EXIT
tail -3 $OUT/daemon.log
