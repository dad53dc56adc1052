"""Layer forward/backward passes, initialization, SGD with momentum."""
