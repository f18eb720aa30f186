import sys

from .harness import main

sys.exit(main())
