# Drives lan_tool through the full lifecycle; any non-zero exit fails.
set(DB ${WORK_DIR}/pipeline.gdb)
set(MODELS ${WORK_DIR}/pipeline.mdl)

function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "step failed (${code}): ${ARGV}")
  endif()
endfunction()

run_step(${LAN_TOOL} generate --kind syn --count 60 --seed 3 --out ${DB})
run_step(${LAN_TOOL} stats --db ${DB})
set(INDEX ${WORK_DIR}/pipeline.idx)
# --build-threads 2 exercises the parallel construction path end-to-end
# (recall/quality checks below run against the parallel-built index).
run_step(${LAN_TOOL} build --db ${DB} --models ${MODELS} --index ${INDEX} --queries 12
         --build-threads 2)
run_step(${LAN_TOOL} search --db ${DB} --models ${MODELS} --index ${INDEX} --k 3 --queries 1)
run_step(${LAN_TOOL} diagnose --db ${DB} --models ${MODELS} --index ${INDEX})

# Observability outputs: the trace must be non-empty JSON lines, the
# metrics snapshot one parseable JSON object.
set(TRACE ${WORK_DIR}/pipeline.trace.jsonl)
set(METRICS ${WORK_DIR}/pipeline.metrics.json)
run_step(${LAN_TOOL} search --db ${DB} --models ${MODELS} --index ${INDEX}
         --k 3 --queries 2 --trace-out ${TRACE} --metrics-out ${METRICS})
foreach(artifact ${TRACE} ${METRICS})
  if(NOT EXISTS ${artifact})
    message(FATAL_ERROR "search did not write ${artifact}")
  endif()
endforeach()

if(CMAKE_VERSION VERSION_LESS 3.19)
  return()  # string(JSON) unavailable; existence checks above still ran
endif()

file(STRINGS ${TRACE} trace_lines)
list(LENGTH trace_lines num_trace_lines)
if(num_trace_lines LESS 2)
  message(FATAL_ERROR "trace has ${num_trace_lines} lines; expected >= 2")
endif()
set(saw_begin FALSE)
foreach(line IN LISTS trace_lines)
  string(JSON event_type GET "${line}" type)  # fails hard on malformed JSON
  if(event_type STREQUAL "query_begin")
    set(saw_begin TRUE)
  endif()
endforeach()
if(NOT saw_begin)
  message(FATAL_ERROR "trace contains no query_begin event")
endif()

file(READ ${METRICS} metrics_json)
string(JSON num_queries GET "${metrics_json}" counters queries)
if(NOT num_queries EQUAL 2)
  message(FATAL_ERROR "metrics counted ${num_queries} queries; expected 2")
endif()
string(JSON ndc_p50 GET "${metrics_json}" histograms query_ndc p50)
if(ndc_p50 LESS_EQUAL 0)
  message(FATAL_ERROR "metrics query_ndc p50 is ${ndc_p50}; expected > 0")
endif()

# Online updates: insert + remove mutate the db/index pair through the
# epoch-versioned path; the stale model checkpoint must still load over
# the grown index (inserted graphs join their nearest frozen centroid).
set(DB2 ${WORK_DIR}/pipeline2.gdb)
set(INDEX2 ${WORK_DIR}/pipeline2.idx)
run_step(${LAN_TOOL} insert --db ${DB} --index ${INDEX} --count 5 --seed 11
         --build-threads 2 --out-db ${DB2} --out-index ${INDEX2})
run_step(${LAN_TOOL} remove --db ${DB2} --index ${INDEX2} --count 2 --seed 12
         --out-db ${DB2} --out-index ${INDEX2})
run_step(${LAN_TOOL} stats --db ${DB2})
run_step(${LAN_TOOL} search --db ${DB2} --models ${MODELS} --index ${INDEX2}
         --k 3 --queries 1)

# eval --trace-out: one private trace per parallel query, concatenated as
# JSON lines (each carries its query_id).
set(EVAL_TRACE ${WORK_DIR}/pipeline.eval.trace.jsonl)
run_step(${LAN_TOOL} eval --db ${DB2} --models ${MODELS} --index ${INDEX2}
         --k 3 --queries 2 --trace-out ${EVAL_TRACE})
if(NOT EXISTS ${EVAL_TRACE})
  message(FATAL_ERROR "eval did not write ${EVAL_TRACE}")
endif()
file(STRINGS ${EVAL_TRACE} eval_lines)
list(LENGTH eval_lines num_eval_lines)
if(num_eval_lines LESS 2)
  message(FATAL_ERROR "eval trace has ${num_eval_lines} lines; expected >= 2")
endif()
set(eval_query_ids "")
foreach(line IN LISTS eval_lines)
  string(JSON qid GET "${line}" query_id)
  list(APPEND eval_query_ids ${qid})
endforeach()
list(REMOVE_DUPLICATES eval_query_ids)
list(LENGTH eval_query_ids num_eval_queries)
if(num_eval_queries LESS 2)
  message(FATAL_ERROR
          "eval trace covers ${num_eval_queries} queries; expected >= 2")
endif()

# --- serve: embedded stats server over a snapshot -----------------------
# Launches `lan_tool serve` in the background on an ephemeral port, scrapes
# every endpoint through bare bash (/dev/tcp, no curl dependency), and
# checks that SIGTERM shuts the loop down cleanly.
find_program(BASH_PROGRAM bash)
if(NOT BASH_PROGRAM)
  return()  # the HTTP assertions need bash; everything above still ran
endif()

set(SNAP ${WORK_DIR}/pipeline.lansnap)
run_step(${LAN_TOOL} snapshot save --db ${DB} --out ${SNAP} --queries 0)

set(PORT_FILE ${WORK_DIR}/pipeline.serve.port)
set(PID_FILE ${WORK_DIR}/pipeline.serve.pid)
set(SERVE_LOG ${WORK_DIR}/pipeline.serve.log)
file(REMOVE ${PORT_FILE})
execute_process(
  COMMAND ${BASH_PROGRAM} -c
    "'${LAN_TOOL}' serve --snapshot '${SNAP}' --stats-port 0 --port-file '${PORT_FILE}' --slow-inject-every 4 --ged-cache-mb 4 --throttle-ms 1 > '${SERVE_LOG}' 2>&1 & echo $! > '${PID_FILE}'"
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "failed to launch lan_tool serve")
endif()
file(READ ${PID_FILE} SERVE_PID)
string(STRIP "${SERVE_PID}" SERVE_PID)

# serve writes the port file right after binding; poll up to 10s.
set(SERVE_PORT "")
foreach(attempt RANGE 100)
  if(EXISTS ${PORT_FILE})
    file(READ ${PORT_FILE} SERVE_PORT)
    string(STRIP "${SERVE_PORT}" SERVE_PORT)
    if(NOT SERVE_PORT STREQUAL "")
      break()
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(SERVE_PORT STREQUAL "")
  execute_process(COMMAND ${BASH_PROGRAM} -c "kill ${SERVE_PID} 2>/dev/null")
  message(FATAL_ERROR "serve never wrote its port file (log: ${SERVE_LOG})")
endif()

# Let the query loop turn over so histograms and the slow ring populate.
execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 1)

function(fetch path out_var)
  execute_process(
    COMMAND ${BASH_PROGRAM} -c
      "exec 3<>/dev/tcp/127.0.0.1/${SERVE_PORT}; printf 'GET ${path} HTTP/1.1\\r\\nHost: localhost\\r\\n\\r\\n' >&3; cat <&3"
    OUTPUT_VARIABLE response RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "fetch ${path} failed (${code})")
  endif()
  set(${out_var} "${response}" PARENT_SCOPE)
endfunction()

fetch(/healthz healthz)
if(NOT healthz MATCHES "200 OK" OR NOT healthz MATCHES "ok")
  message(FATAL_ERROR "/healthz not healthy:\n${healthz}")
endif()

fetch(/metrics metrics)
foreach(needle
        "# TYPE query_latency_seconds histogram"
        "stage_routing_seconds"
        "stage_ged_seconds_sum"
        "cache_hits"
        "cache_ged_hits"
        "cache_rank_hits"
        "cache_scores_hits"
        "insert_pair_distance_calls"
        "insert_pair_memo_entries"
        "insert_pair_memo_bytes"
        "query_latency_seconds_count")
  if(NOT metrics MATCHES "${needle}")
    message(FATAL_ERROR "/metrics missing '${needle}':\n${metrics}")
  endif()
endforeach()

fetch(/statusz statusz)
foreach(needle "uptime_seconds" "queries_served" "\"metrics\":")
  if(NOT statusz MATCHES "${needle}")
    message(FATAL_ERROR "/statusz missing '${needle}':\n${statusz}")
  endif()
endforeach()

# /slowz: every retained record is a slow_query header line followed by
# its full trace (serve defaults to tracing every query).
fetch(/slowz slowz)
foreach(needle "slow_query" "\"stages\":" "query_begin")
  if(NOT slowz MATCHES "${needle}")
    message(FATAL_ERROR "/slowz missing '${needle}':\n${slowz}")
  endif()
endforeach()

# Clean SIGTERM shutdown within 10s.
execute_process(COMMAND ${BASH_PROGRAM} -c "kill -TERM ${SERVE_PID}")
set(stopped FALSE)
foreach(attempt RANGE 100)
  execute_process(COMMAND ${BASH_PROGRAM} -c "kill -0 ${SERVE_PID} 2>/dev/null"
                  RESULT_VARIABLE alive)
  if(NOT alive EQUAL 0)
    set(stopped TRUE)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT stopped)
  execute_process(COMMAND ${BASH_PROGRAM} -c "kill -9 ${SERVE_PID}")
  message(FATAL_ERROR "serve did not exit within 10s of SIGTERM")
endif()
file(READ ${SERVE_LOG} serve_log)
if(NOT serve_log MATCHES "shutting down")
  message(FATAL_ERROR "serve log missing clean-shutdown line:\n${serve_log}")
endif()
