# Static-analysis wiring: clang-tidy, cppcheck, and the repo-specific
# protocol linter (tools/ccvc_lint.py).
#
# clang-tidy and cppcheck are optional toolchain components — the
# targets exist only when the tool is on PATH, and ci/check.sh treats a
# missing tool as a skipped (not failed) step so the suite degrades
# gracefully on GCC-only images.  The protocol linter needs only a
# Python interpreter and the C++ compiler already in use, so it is
# always registered as a ctest test under the `lint` label.

set(CCVC_SRC_GLOBS
  ${CMAKE_SOURCE_DIR}/src/*/*.cpp
  ${CMAKE_SOURCE_DIR}/src/*.hpp)

# --- clang-tidy -------------------------------------------------------
find_program(CCVC_CLANG_TIDY_EXE NAMES clang-tidy clang-tidy-18 clang-tidy-17
                                       clang-tidy-16 clang-tidy-15)
if(CCVC_CLANG_TIDY_EXE)
  file(GLOB_RECURSE _ccvc_tidy_sources ${CMAKE_SOURCE_DIR}/src/*.cpp)
  add_custom_target(tidy
    COMMAND ${CCVC_CLANG_TIDY_EXE} -p ${CMAKE_BINARY_DIR} --quiet
            --warnings-as-errors=* ${_ccvc_tidy_sources}
    WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
    COMMENT "clang-tidy over src/ (config: .clang-tidy)"
    VERBATIM)
  message(STATUS "CCVC: clang-tidy found (${CCVC_CLANG_TIDY_EXE}); "
                 "'cmake --build . --target tidy' enabled")
else()
  message(STATUS "CCVC: clang-tidy not found; 'tidy' target disabled")
endif()

# --- cppcheck ---------------------------------------------------------
find_program(CCVC_CPPCHECK_EXE NAMES cppcheck)
if(CCVC_CPPCHECK_EXE)
  add_custom_target(cppcheck
    COMMAND ${CCVC_CPPCHECK_EXE}
            --enable=warning,performance,portability
            --error-exitcode=2
            --inline-suppr
            --std=c++20
            --language=c++
            --suppressions-list=${CMAKE_SOURCE_DIR}/.cppcheck-suppressions
            -I ${CMAKE_SOURCE_DIR}/src
            ${CMAKE_SOURCE_DIR}/src
    COMMENT "cppcheck over src/"
    VERBATIM)
  message(STATUS "CCVC: cppcheck found (${CCVC_CPPCHECK_EXE}); "
                 "'cmake --build . --target cppcheck' enabled")
else()
  message(STATUS "CCVC: cppcheck not found; 'cppcheck' target disabled")
endif()

# --- gcc -fanalyzer ---------------------------------------------------
# GCC's interprocedural analyzer is still experimental for C++ (GCC 12
# documents it as C-focused), so this is an opt-in preset/target that
# *logs* findings rather than failing: ci/check.sh step 3 prints its
# report non-fatally, same graceful gating as tidy/cppcheck above.
if(CMAKE_CXX_COMPILER_ID STREQUAL "GNU"
   AND CMAKE_CXX_COMPILER_VERSION VERSION_GREATER_EQUAL 12)
  file(GLOB_RECURSE _ccvc_fanalyzer_sources ${CMAKE_SOURCE_DIR}/src/*.cpp)
  add_custom_target(fanalyzer
    COMMAND ${CMAKE_CXX_COMPILER} -fanalyzer -fsyntax-only -std=c++20
            -I ${CMAKE_SOURCE_DIR}/src ${_ccvc_fanalyzer_sources}
    WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
    COMMENT "gcc -fanalyzer over src/ (experimental for C++; findings "
            "are informational)"
    VERBATIM)
  message(STATUS "CCVC: gcc>=12 detected; 'fanalyzer' target enabled "
                 "(informational)")
else()
  message(STATUS "CCVC: gcc>=12 not in use; 'fanalyzer' target disabled")
endif()

# --- protocol linter --------------------------------------------------
find_package(Python3 COMPONENTS Interpreter)
if(Python3_Interpreter_FOUND)
  add_test(NAME ccvc_lint
    COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/ccvc_lint.py
            --root ${CMAKE_SOURCE_DIR}
            --compiler ${CMAKE_CXX_COMPILER})
  set_tests_properties(ccvc_lint PROPERTIES LABELS "lint" TIMEOUT 300)
  message(STATUS "CCVC: protocol linter registered (ctest -L lint)")

  # Per-rule linter regression tests over fixture files (tests/lint/).
  add_test(NAME ccvc_lint_selftest
    COMMAND ${Python3_EXECUTABLE}
            ${CMAKE_SOURCE_DIR}/tests/lint/lint_selftest.py
            --root ${CMAKE_SOURCE_DIR}
            --compiler ${CMAKE_CXX_COMPILER})
  set_tests_properties(ccvc_lint_selftest PROPERTIES LABELS "lint"
                       TIMEOUT 300)

  # Cross-TU analyzer gate (ctest -L sa): the committed baseline and the
  # generated ATOMICS/HOTPATH/BLOCKING docs must match the tree, and the
  # mutation corpus proves each checker class actually fires.
  add_test(NAME ccvc_sa
    COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/ccvc_sa
            --check --root ${CMAKE_SOURCE_DIR})
  set_tests_properties(ccvc_sa PROPERTIES LABELS "sa" TIMEOUT 300)
  add_test(NAME ccvc_sa_mutation
    COMMAND sh ${CMAKE_SOURCE_DIR}/tools/sa_mutation.sh
            ${CMAKE_SOURCE_DIR} ${Python3_EXECUTABLE})
  set_tests_properties(ccvc_sa_mutation PROPERTIES LABELS "sa"
                       TIMEOUT 600)

  # Per-checker fixture regressions (tests/sa/): good/bad mini-trees
  # diffed against the checker registry, so a checker without fixture
  # coverage fails structurally.
  add_test(NAME ccvc_sa_selftest
    COMMAND ${Python3_EXECUTABLE}
            ${CMAKE_SOURCE_DIR}/tests/sa/sa_selftest.py
            --root ${CMAKE_SOURCE_DIR})
  set_tests_properties(ccvc_sa_selftest PROPERTIES LABELS "sa"
                       TIMEOUT 300)
  message(STATUS "CCVC: cross-TU analyzer registered (ctest -L sa)")
else()
  message(STATUS "CCVC: python3 not found; protocol linter and ccvc_sa "
                 "not registered")
endif()
