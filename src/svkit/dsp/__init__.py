"""WAV I/O, voice activity detection, MFEC feature maps and cubes."""
