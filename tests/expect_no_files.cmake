# Fails when the directory ROOT holds any file (at any depth).
#   cmake -DROOT=DIR -P expect_no_files.cmake
file(GLOB_RECURSE left LIST_DIRECTORIES false "${ROOT}/*")
if(left)
  list(LENGTH left count)
  message(FATAL_ERROR "${count} file(s) left under ${ROOT}: ${left}")
endif()
