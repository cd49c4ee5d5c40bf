"""uwq: tau/Weyl/Anti-Wick quantization on discretized phase space.

Numerical and symbolic machinery for the global quantization calculus:
weight sequences and their associated functions, periodic grids with exact
discrete Fourier conventions, the Gaussian-window short-time Fourier
transform, quantization matrices, the exact polynomial expansion calculus,
and Gaussian-convolution / Laplace-transform identities.  Every structural
identity ships with a verification suite (``uwq verify``).

Import public names from the submodules (``uwq.quant``, ``uwq.stft``, ...).
"""
