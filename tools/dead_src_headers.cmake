# Lint: every src/ header must have a production includer.
#
# A header is live when some file under src/, examples/, bench/ or
# perfbench/ includes it, other than the header itself and its own .cpp.
# Includes from tests/ do not count: code that only tests reach belongs
# in tests/ (as the legacy TSDB oracle and the reference worker do).
#
# Run: cmake -DROOT=<repo root> -P tools/dead_src_headers.cmake
# (registered with ctest as Lint.DeadSrcHeaders).

if(NOT ROOT)
  message(FATAL_ERROR "usage: cmake -DROOT=<repo root> -P tools/dead_src_headers.cmake")
endif()

set(sources)
foreach(dir src examples bench perfbench)
  file(GLOB_RECURSE found "${ROOT}/${dir}/*.cpp" "${ROOT}/${dir}/*.hpp")
  list(APPEND sources ${found})
endforeach()

# includers_<header id> lists every file that includes that header.
foreach(source IN LISTS sources)
  file(STRINGS "${source}" lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"[^\"]+\"")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^[^\"]*\"([^\"]+)\".*$" "\\1" included "${line}")
    string(MAKE_C_IDENTIFIER "${included}" id)
    list(APPEND includers_${id} "${source}")
  endforeach()
endforeach()

file(GLOB_RECURSE headers RELATIVE "${ROOT}/src" "${ROOT}/src/*.hpp")
list(SORT headers)
set(dead)
foreach(header IN LISTS headers)
  string(MAKE_C_IDENTIFIER "${header}" id)
  string(REGEX REPLACE "\\.hpp$" ".cpp" own_cpp "${header}")
  set(users ${includers_${id}})
  list(REMOVE_ITEM users "${ROOT}/src/${header}" "${ROOT}/src/${own_cpp}")
  if(NOT users)
    list(APPEND dead "${header}")
  endif()
endforeach()

if(dead)
  list(LENGTH dead count)
  list(JOIN dead "\n  src/" listing)
  message(FATAL_ERROR "${count} src/ header(s) with no includer outside tests/ "
                      "and their own .cpp:\n  src/${listing}\n"
                      "Wire each into the pipeline, an example or a bench, "
                      "or move it to tests/.")
endif()
list(LENGTH headers count)
message(STATUS "dead_src_headers: all ${count} src/ headers have a production includer")
