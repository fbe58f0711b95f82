# Regression test for option parsing: a value the tools cannot represent
# exactly must be rejected loudly, never silently truncated ("1.2abc" ->
# 1.2), rounded (a 64-bit seed through a double), wrapped (-1 or 2^64 into
# a u64, 70000 into a port, 65538 into a protocol) or ignored (an on|off
# switch given "yes", or a flag no command reads).

# A command that must exit with a nonzero status (not a timeout or a
# signal) and print `diagnostic` on stderr. Every case runs under a timeout,
# so a server that binds or a soak that runs instead of rejecting its flags
# fails the case instead of hanging it.
function(expect_rejected diagnostic)
  execute_process(COMMAND ${ARGN} TIMEOUT 30
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc MATCHES "^[1-9][0-9]*$")
    message(FATAL_ERROR "'${ARGN}' was not rejected (result '${rc}'): ${out}")
  endif()
  if(NOT err MATCHES "${diagnostic}")
    message(FATAL_ERROR "'${ARGN}' lacks the diagnostic '${diagnostic}': ${err}")
  endif()
endfunction()

# Real-valued flags: the whole token must parse as a number.
expect_rejected("trailing junk in value '0.5abc' for --flip-rate"
                ${CLI} auth-batch --devices 4 --flip-rate 0.5abc)
expect_rejected("non-numeric value 'nope' for --bias"
                ${CLI} nist --bias nope)

# Integer flags: digits only, so junk, fractions and words are refused.
set(u64_diagnostic "must be a decimal integer")
expect_rejected("--boards ${u64_diagnostic} .* got '8abc'"
                ${CLI} fleet-stats --boards 8abc)
expect_rejected("--pairs ${u64_diagnostic} .* got '1.2abc'"
                ${CLI} enroll --seed 42 --pairs 1.2abc)
expect_rejected("--streams ${u64_diagnostic} .* got 'nope'"
                ${CLI} nist --streams nope)

# 64-bit seeds parse exactly: 2^53 and 2^53 + 1 are two fleets, and the
# largest u64 is a seed like any other.
foreach(seed 9007199254740992 9007199254740993 18446744073709551615)
  set(fleet ${WORKDIR}/cli_bad_args_${seed}.ropufreg)
  execute_process(COMMAND ${CLI} registry-build --devices 4 --seed ${seed} --out ${fleet}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "registry-build --seed ${seed} failed: ${err}")
  endif()
  file(SHA256 ${fleet} fleet_${seed})
endforeach()
if(fleet_9007199254740992 STREQUAL fleet_9007199254740993)
  message(FATAL_ERROR "--seed 2^53 and 2^53 + 1 minted byte-identical fleets")
endif()

# Past the u64 range, signed, or not an integer: rejected, naming the flag.
expect_rejected("--seed ${u64_diagnostic}"
                ${CLI} registry-build --devices 4 --seed 18446744073709551616
                --out ${WORKDIR}/cli_bad_args_2p64.ropufreg)
expect_rejected("--seed ${u64_diagnostic}"
                ${CLI} registry-build --devices 4 --seed -1
                --out ${WORKDIR}/cli_bad_args_minus1.ropufreg)
expect_rejected("--workload-seed ${u64_diagnostic}"
                ${CLI} auth-batch --devices 4 --workload-seed 1e3)
expect_rejected("device id in --retire ${u64_diagnostic}"
                ${CLI} registry-append --registry
                ${WORKDIR}/cli_bad_args_18446744073709551615.ropufreg --retire -1)
expect_rejected("--nonce-seed ${u64_diagnostic}"
                ${SERVE} --devices 4 --nonce-seed 18446744073709551616)
expect_rejected("--soak-seed ${u64_diagnostic}"
                ${SOAK} --devices 4 --soak-seed 18446744073709551616)

# Integer flags parse exactly: a negative --bits must not wrap into a
# near-2^64 response size, a negative --cache into an unbounded cache, or a
# negative --max-hd into an accept-everything threshold.
expect_rejected("--bits ${u64_diagnostic}"
                ${CLI} auth-batch --devices 4 --bits -3 --requests 16
                --unknown-rate 1 --forge-rate 0)
expect_rejected("--cache ${u64_diagnostic}"
                ${CLI} auth-batch --devices 4 --cache -1 --requests 16)
expect_rejected("--max-hd ${u64_diagnostic}"
                ${CLI} auth-batch --devices 4 --max-hd -1 --requests 16)
# An exact 2^64 - 3 reaches BitVec, which must refuse a size whose word
# count wraps rather than back it with one word.
expect_rejected("BitVec of 18446744073709551613 bits"
                ${CLI} auth-batch --devices 4 --bits 18446744073709551613 --requests 16
                --unknown-rate 1 --forge-rate 0)

# Timeouts are ints: a value past 2^31 - 1 is refused, not wrapped.
expect_rejected("--read-deadline-ms must be at most 2147483647"
                ${SERVE} --devices 4 --read-deadline-ms 2147483648)

# Ports stop at 65535 (0 stays the ephemeral port).
expect_rejected("--port must be in" ${SERVE} --devices 4 --port 70000)
expect_rejected("--port must be in" ${CLI} auth-client --devices 4 --port 70000)

# The soak's switches take on|off like --detector, not "on" or anything else.
foreach(switch compare require-defense require-detector)
  expect_rejected("--${switch} must be on" ${SOAK} --devices 4 --${switch} yes)
endforeach()

# --threads parses like every other integer flag: no exponent, no fraction.
expect_rejected("--threads ${u64_diagnostic} .* got '1e3'"
                ${CLI} fleet-stats --boards 4 --threads 1e3)
expect_rejected("--threads ${u64_diagnostic} .* got '2.0'"
                ${CLI} fleet-stats --boards 4 --threads 2.0)

# --protocol is checked before any narrowing: 65538 is not 2.
expect_rejected("--protocol must be 1 or 2, got 65538"
                ${SOAK} --devices 4 --protocol 65538)

# A flag no command reads is an error, not a silent default: a typo in each
# tool, and a flag that no longer exists. The server must refuse before it
# binds, and registry-build before it writes its output.
expect_rejected("unknown option --max-hdd"
                ${CLI} auth-batch --devices 4 --requests 16 --max-hdd 5)
expect_rejected("unknown option --detector-window"
                ${CLI} auth-batch --devices 4 --requests 16 --detector-window 32)
set(misspelled ${WORKDIR}/cli_bad_args_sead.ropufreg)
file(REMOVE ${misspelled})
expect_rejected("unknown option --sead"
                ${CLI} registry-build --devices 4 --sead 5 --out ${misspelled})
if(EXISTS ${misspelled})
  message(FATAL_ERROR "registry-build wrote ${misspelled} despite an unknown option")
endif()
expect_rejected("unknown option --bogus" ${SERVE} --devices 4 --bogus 1)
expect_rejected("unknown option --rate-brust" ${SOAK} --devices 4 --rate-brust 16)

# A flag the chosen mode does not use is unread too: v2 proofs meet no
# Hamming threshold, admission or detector, and auth-client builds no
# service, so it reads no cache flag (and refuses one before it connects:
# nothing listens on port 1).
expect_rejected("unknown option --crp-budget"
                ${CLI} auth-batch --devices 4 --requests 64 --protocol 2 --rate-burst 1
                --rate-interval 1000 --crp-budget 1 --detector on)
expect_rejected("unknown option --detector"
                ${CLI} auth-batch --devices 4 --requests 64 --protocol 2 --detector on)
expect_rejected("unknown option --cache"
                ${CLI} auth-client --devices 4 --port 1 --cache 8)
expect_rejected("unknown option --bits"
                ${CLI} auth-batch --devices 4 --requests 64 --protocol 2 --bits 99
                --max-hd 50)
