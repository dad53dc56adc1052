"""Development training, enrollment, cosine scoring, ROC/EER/AUC, evaluation."""
