#!/usr/bin/env bash
# Shared CI dependency install: toolchain and gtest.
# Ubuntu's libgtest-dev ships sources only on some releases; build and
# install them when no prebuilt archive is present.
set -euo pipefail

sudo apt-get update
sudo apt-get install -y cmake g++ libgtest-dev

if [ ! -f /usr/lib/x86_64-linux-gnu/libgtest.a ] && [ -d /usr/src/googletest ]; then
  cmake -S /usr/src/googletest -B /tmp/gtest-build
  cmake --build /tmp/gtest-build -j"$(nproc)"
  sudo cmake --install /tmp/gtest-build
fi
