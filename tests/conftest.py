"""Puts this directory on ``sys.path`` so every test module can import
the shared oracle module (``quantum_oracle``) by its bare name."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
